"""sympy as a second opinion on the group side.

Every default-corpus group is rebuilt in sympy from its textbook definition,
not from our table, and five invariants are compared: the order, whether it
is abelian, whether it is cyclic, the order of its centre and the multiset of
element orders.
"""

from collections import Counter

import numpy as np
import pytest

from groupgraphs import build_family, default_corpus

pytest.importorskip("sympy")

from sympy.combinatorics import (  # noqa: E402
    AbelianGroup,
    CyclicGroup,
    DihedralGroup,
    DirectProduct,
    SymmetricGroup,
)
from sympy.combinatorics.fp_groups import FpGroup  # noqa: E402
from sympy.combinatorics.free_groups import free_group  # noqa: E402


def sympy_group(spec):
    """The permutation group that ``spec`` names, built by sympy alone."""
    if spec.kind == "product":
        return DirectProduct(*(sympy_group(f) for f in spec.factors))
    if spec.kind == "ea":
        p, k = spec.params
        return AbelianGroup(*[p] * k)
    (n,) = spec.params
    if spec.kind == "dicyclic":
        # <a, b | a^(2n), b^2 = a^n, b^-1 a b = a^-1>
        free, a, b = free_group("a b")
        relators = [a ** (2 * n), b**2 * a ** (-n), b**-1 * a * b * a]
        return FpGroup(free, relators)._to_perm_group()[0]
    build = {"cyclic": CyclicGroup, "dihedral": DihedralGroup, "symmetric": SymmetricGroup}
    return build[spec.kind](n)


@pytest.mark.parametrize("spec", default_corpus(), ids=lambda spec: spec.label())
def test_group_matches_sympy(spec):
    group = build_family(spec)
    profile = group.profile()
    t = group.table
    center_order = sum(np.array_equal(t[i], t[:, i]) for i in range(group.order))
    ours = (
        profile.order,
        profile.is_abelian,
        profile.is_cyclic,
        center_order,
        Counter(int(o) for o in group.element_orders),
    )
    h = sympy_group(spec)
    theirs = (
        h.order(),
        h.is_abelian,
        h.is_cyclic,
        h.center().order(),
        Counter(int(x.order()) for x in h.elements),
    )
    assert ours == theirs
