"""tower: Artin towers of cyclic p-groups, where the group kernel does the work.

Every round runs each (p, depth) pair below once, in an order drawn from the
seed.  ``tower 3 5`` and ``tower 7 3`` are left out: today they take 30 s and
more each.
"""

from __future__ import annotations

import random

from ttperiods import spectra

from measure import Op

DEPTHS = {2: 6, 3: 4, 5: 3, 7: 2}
TAIL_PCT = 75.0


def closed_form(p: int, depth: int) -> dict[str, int]:
    """Chain periods of the tower: every m_j is 0; s_1 is 1 at p=2, else 2."""
    chain = {f"m{j}": 0 for j in range(depth + 1)}
    for j in range(1, depth + 1):
        chain[f"s{j}"] = 1 if (p == 2 and j == 1) else 2
    return chain


def _op(p: int, depth: int) -> Op:
    want = closed_form(p, depth)

    def check(report) -> "str | None":
        got = dict(report.chain_periods.values)
        return None if got == want else f"chain {got} != closed form {want}"

    return Op(
        id=f"tower/p{p}/d{depth}",
        call=lambda: spectra.artin_tower(p, depth),
        layer="spectra",
        check=check,
    )


def build(seed: int) -> list[Op]:
    pairs = [(p, d) for p, top in DEPTHS.items() for d in range(1, top + 1)]
    random.Random(seed).shuffle(pairs)
    return [_op(p, d) for p, d in pairs]
