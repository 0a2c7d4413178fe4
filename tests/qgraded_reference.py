"""Reference minimality search for the tests.

``smaller_qgraded`` is the exhaustive subset search that ``qgraded`` used
before its walk over Psi: it tries every subset of Psi with at least rank
elements, smallest first and each size in ``combinations`` order.  It shares
only the closure and span tests with the walk, which is checked against it
in ``test_qgraded``.
"""

from __future__ import annotations

from itertools import combinations

from liecert.chevalley import SubalgebraSpec
from liecert.qgraded import is_closed, spans_q
from liecert.rootsys import Root


def smaller_qgraded(spec: SubalgebraSpec) -> tuple[Root, ...] | None:
    """A proper subset of Psi that is closed and spanning, by exhaustive
    search, else None.  The caller has decided that Psi itself is both."""
    rs = spec.system
    for size in range(rs.rank, len(spec.psi)):  # spanning needs at least rank elements
        for subset in combinations(spec.psi, size):
            sub = SubalgebraSpec(rs, subset)
            if is_closed(sub)[0] and spans_q(sub)[0]:
                return sub.psi
    return None
