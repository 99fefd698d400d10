"""Named group constructions and the text grammar that selects them.

Spec strings follow the CLI grammar: ``cyclic:6``, ``dihedral:5``,
``dicyclic:2``, ``symmetric:4``, ``ea:2,3``, ``product:cyclic:3*cyclic:5``,
``file:PATH``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .groups import (
    FiniteGroup,
    _group_from_rows,
    _split_table_text,
    is_prime,
)

__all__ = [
    "DEFAULT_ORDER_CAP",
    "FamilySpec",
    "InvalidParameterError",
    "OrderCapExceededError",
    "build_family",
    "parse_group_spec",
]

DEFAULT_ORDER_CAP = 200


class InvalidParameterError(ValueError):
    """Family parameters out of range (non-positive n, composite p, ...)."""


class OrderCapExceededError(ValueError):
    """The requested group would exceed the configured order cap."""


@dataclass(frozen=True)
class FamilySpec:
    """One named group: a family kind plus its parameters.

    ``kind`` is one of cyclic, dihedral, dicyclic, symmetric, ea, product,
    file.  ``params`` carries the integer parameters, ``factors`` the
    component specs of a product, ``path`` the table file of a file spec.
    """

    kind: str
    params: tuple[int, ...] = ()
    factors: tuple["FamilySpec", ...] = ()
    path: str | None = None

    def label(self) -> str:
        if self.kind == "product":
            return "product:" + "*".join(f.label() for f in self.factors)
        if self.kind == "file":
            return f"file:{self.path}"
        return f"{self.kind}:" + ",".join(str(p) for p in self.params)

    @staticmethod
    def cyclic(n: int) -> "FamilySpec":
        return FamilySpec("cyclic", (n,))

    @staticmethod
    def dihedral(n: int) -> "FamilySpec":
        return FamilySpec("dihedral", (n,))

    @staticmethod
    def dicyclic(n: int) -> "FamilySpec":
        return FamilySpec("dicyclic", (n,))

    @staticmethod
    def symmetric(n: int) -> "FamilySpec":
        return FamilySpec("symmetric", (n,))

    @staticmethod
    def elementary_abelian(p: int, k: int) -> "FamilySpec":
        return FamilySpec("ea", (p, k))

    @staticmethod
    def product(*factors: "FamilySpec") -> "FamilySpec":
        return FamilySpec("product", factors=tuple(factors))

    @staticmethod
    def from_file(path: str | Path) -> "FamilySpec":
        return FamilySpec("file", path=str(path))


def parse_group_spec(text: str) -> FamilySpec:
    """Parse a group spec string into a FamilySpec."""
    text = text.strip()
    if text.startswith("file:"):
        path = text[len("file:"):]
        if not path:
            raise InvalidParameterError("file: spec needs a path")
        return FamilySpec.from_file(path)
    if text.startswith("product:"):
        rest = text[len("product:"):]
        parts = [p for p in rest.split("*") if p]
        if len(parts) < 2:
            raise InvalidParameterError(f"product spec needs >= 2 factors: {text!r}")
        factors = []
        for part in parts:
            sub = parse_group_spec(part)
            if sub.kind in ("product", "file"):
                raise InvalidParameterError(f"product factors must be plain families: {part!r}")
            factors.append(sub)
        return FamilySpec.product(*factors)
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise InvalidParameterError(f"malformed group spec: {text!r}")
    try:
        params = tuple(int(tok) for tok in rest.split(","))
    except ValueError as exc:
        raise InvalidParameterError(f"non-integer parameter in spec: {text!r}") from exc
    spec = FamilySpec(kind, params)
    _family(spec)
    return spec


def _family(spec: FamilySpec) -> _Family:
    """The family table entry for a plain spec, after checking kind and arity."""
    if spec.kind not in _FAMILIES:
        raise InvalidParameterError(f"unknown family {spec.kind!r} in spec {spec.label()!r}")
    family = _FAMILIES[spec.kind]
    if len(spec.params) != family.arity:
        raise InvalidParameterError(
            f"{spec.kind} takes {family.arity} parameter(s), got {len(spec.params)}: "
            f"{spec.label()!r}"
        )
    return family


def _order_factors(spec: FamilySpec) -> Iterable[int]:
    """Factors whose product is the group order implied by the spec.

    Raises InvalidParameterError for an unknown kind, a wrong parameter count
    or parameters out of range, checking every factor of a product before
    returning.
    """
    label = spec.label()
    if spec.kind == "product":
        if len(spec.factors) < 2:
            raise InvalidParameterError(f"{label}: product needs >= 2 factors")
        return chain.from_iterable([_order_factors(f) for f in spec.factors])
    family = _family(spec)
    if any(p < 1 for p in spec.params):
        raise InvalidParameterError(f"{label}: parameters must be positive")
    return family.order_factors(*spec.params)


def _check_order_cap(label: str, factors: Iterable[int], order_cap: int) -> None:
    """Multiply the order factors and raise OrderCapExceededError as soon as
    the partial product passes the cap, so a huge order is never formed."""
    factors = iter(factors)
    order = 1
    for factor in factors:
        order *= factor
        if order > order_cap:
            bound = str(order) if next(factors, None) is None else f"at least {order}"
            raise OrderCapExceededError(f"{label}: order {bound} exceeds cap {order_cap}")


def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _dihedral_table(n: int) -> np.ndarray:
    # element eps*n + k encodes s^eps r^k; r^k s = s r^(-k)
    order = 2 * n
    table = np.empty((order, order), dtype=np.int64)
    for e1 in (0, 1):
        for k1 in range(n):
            for e2 in (0, 1):
                for k2 in range(n):
                    k = (k2 - k1 if e2 else k1 + k2) % n
                    table[e1 * n + k1, e2 * n + k2] = (e1 ^ e2) * n + k
    return table


def _dicyclic_table(n: int) -> np.ndarray:
    # element k encodes a^k (k < 2n), 2n + k encodes a^k b;
    # relations: a^(2n) = e, b^2 = a^n, b a^k = a^(-k) b
    m = 2 * n
    order = 4 * n
    table = np.empty((order, order), dtype=np.int64)
    for k1 in range(m):
        for k2 in range(m):
            table[k1, k2] = (k1 + k2) % m
            table[k1, m + k2] = m + (k1 + k2) % m
            table[m + k1, k2] = m + (k1 - k2) % m
            table[m + k1, m + k2] = (k1 - k2 + n) % m
    return table


def _symmetric_table(n: int) -> np.ndarray:
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.empty((order, order), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return table


def _elementary_abelian_table(p: int, k: int) -> np.ndarray:
    order = p**k
    idx = np.arange(order)
    digits = np.empty((order, k), dtype=np.int64)
    rem = idx.copy()
    for d in range(k):
        digits[:, d] = rem % p
        rem //= p
    sums = (digits[:, None, :] + digits[None, :, :]) % p
    weights = p ** np.arange(k)
    return sums @ weights


def _product_table(tables: list[np.ndarray]) -> np.ndarray:
    table = tables[0]
    for other in tables[1:]:
        nb = other.shape[0]
        table = (table[:, None, :, None] * nb + other[None, :, None, :]).reshape(
            table.shape[0] * nb, table.shape[0] * nb
        )
    return table


class _Family(NamedTuple):
    arity: int
    order_factors: Callable[..., Iterable[int]]  # their product is the group order
    table: Callable[..., np.ndarray]  # Cayley table from the parameters


# the plain families; product and file specs are built from these and from
# table files
_FAMILIES: dict[str, _Family] = {
    "cyclic": _Family(1, lambda n: (n,), _cyclic_table),
    "dihedral": _Family(1, lambda n: (2, n), _dihedral_table),
    "dicyclic": _Family(1, lambda n: (4, n), _dicyclic_table),
    "symmetric": _Family(1, lambda n: range(2, n + 1), _symmetric_table),
    "ea": _Family(2, lambda p, k: repeat(p, k), _elementary_abelian_table),
}


def build_family(spec: FamilySpec, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build the group named by the spec, validating it like any import.

    Raises InvalidParameterError for bad parameters and OrderCapExceededError
    when the resulting order would pass ``order_cap``; a table file is checked
    against the cap on its header's n, before any of its rows.
    """
    label = spec.label()
    if spec.kind == "file":
        if not spec.path:
            raise InvalidParameterError(f"{label}: file spec needs a path")
        try:
            text = Path(spec.path).read_text()
        except OSError as exc:
            raise ValueError(f"{label}: cannot read table file: {exc}") from exc
        order, rows = _split_table_text(text, label)
        _check_order_cap(label, (order,), order_cap)
        return _group_from_rows(order, rows, label)

    _check_order_cap(label, _order_factors(spec), order_cap)
    # after the cap check, so trial division only ever sees p <= order_cap
    if spec.kind == "ea" and not is_prime(spec.params[0]):
        raise InvalidParameterError(f"{label}: {spec.params[0]} is not prime")
    if spec.kind == "product":
        table = _product_table(
            [build_family(f, order_cap=order_cap).table for f in spec.factors]
        )
    else:
        table = _FAMILIES[spec.kind].table(*spec.params)
    return FiniteGroup(table, label=label)
