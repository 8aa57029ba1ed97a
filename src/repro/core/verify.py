"""Bit-exact verification of distributed runs against the reference.

A simulation is correct iff, for every host replica of every column:

1. the folded pebble-value stream equals the reference column's fold
   (every pebble value identical, in order);
2. the database update digest equals the reference digest (same update
   sequence, same order — the database-model consistency contract);
3. the final database *state* digest matches;
4. all replicas of the same column agree with each other (implied by
   1-3 but checked independently for better diagnostics).

All comparisons are digest-based, so verification is O(copies) and does
not need the full pebble grid of the distributed run.
"""

from __future__ import annotations

from repro.core.executor import ExecResult
from repro.machine.database import check_replica_agreement
from repro.machine.guest import ReferenceRun
from repro.machine.mixing import fold_columns_v
from repro.machine.programs import Program


class VerificationError(AssertionError):
    """The distributed run disagreed with the reference."""


def reference_column_digest(reference: ReferenceRun, col: int) -> int:
    """Fold of the reference pebble values of ``col`` for ``t=1..T``."""
    return int(fold_columns_v(reference.values[1:, col : col + 1])[0])


def verify_execution(
    result: ExecResult, reference: ReferenceRun, program: Program
) -> int:
    """Verify ``result`` against ``reference``; return replicas checked.

    Raises :class:`VerificationError` on the first mismatch, with the
    offending position/column in the message.
    """
    if result.steps != reference.steps:
        raise VerificationError(
            f"step mismatch: run has {result.steps}, reference {reference.steps}"
        )
    if result.assignment.m != reference.m:
        raise VerificationError(
            f"guest size mismatch: run has m={result.assignment.m}, "
            f"reference m={reference.m}"
        )

    # Every column's reference fold at once (one mix2_v per row); the
    # per-replica comparisons below stay scalar.
    m = reference.m
    ref_value_digest = dict(
        zip(range(1, m + 1), fold_columns_v(reference.values[1:, 1 : m + 1]).tolist())
    )
    ref_update = reference.update_digests.tolist()
    ref_state = reference.state_digests.tolist()
    checked = 0
    by_column: dict[int, list] = {}
    for (p, c), digest in result.value_digests.items():
        if digest != ref_value_digest.get(c):
            raise VerificationError(
                f"pebble values diverge: position {p}, column {c}"
            )
        replica = result.replicas[(p, c)]
        if replica.version != result.steps:
            raise VerificationError(
                f"replica at position {p}, column {c} applied "
                f"{replica.version} updates, expected {result.steps}"
            )
        if replica.digest != ref_update[c - 1]:
            raise VerificationError(
                f"update digest diverges: position {p}, column {c}"
            )
        state_digest = program.state_digest(replica.state)
        if state_digest != ref_state[c - 1]:
            raise VerificationError(
                f"final state diverges: position {p}, column {c}"
            )
        by_column.setdefault(c, []).append(replica)
        checked += 1

    for c, replicas in by_column.items():
        try:
            check_replica_agreement(replicas)
        except AssertionError as exc:  # pragma: no cover - covered above
            raise VerificationError(str(exc)) from None

    covered = set(by_column)
    missing = [c for c in range(1, result.assignment.m + 1) if c not in covered]
    if missing:
        raise VerificationError(f"columns never verified: {missing[:10]}")
    return checked
