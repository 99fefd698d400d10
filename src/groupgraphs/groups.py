"""Finite groups as validated Cayley tables with 0-based element indices.

The identity always sits at index 0 (tables are relabeled on import if
needed), so vertex numbering stays stable across every graph derived from
the same group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "FiniteGroup",
    "GroupProfile",
    "GroupTableError",
    "NotClosedError",
    "NoIdentityError",
    "NoInverseError",
    "NotAssociativeError",
    "parse_cayley_table_text",
    "is_prime",
    "prime_factors",
]


class GroupTableError(ValueError):
    """A proposed Cayley table violates one of the group axioms."""


class NotClosedError(GroupTableError):
    """Some table entry is not an element index in [0, n)."""


class NoIdentityError(GroupTableError):
    """No element acts as a two-sided identity."""


class NoInverseError(GroupTableError):
    """Some element lacks a unique two-sided inverse."""


class NotAssociativeError(GroupTableError):
    """Some triple (i, j, k) violates (x_i x_j) x_k = x_i (x_j x_k)."""


def is_prime(m: int) -> bool:
    """Trial-division primality test, adequate for element orders under the cap."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m in increasing order."""
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append(m)
    return factors


@dataclass(frozen=True)
class GroupProfile:
    """Group-side predicates that the classification claims quantify over.

    ``is_p_group`` is true exactly when the order is a prime power; the
    trivial group is not a p-group.
    """

    order: int
    is_abelian: bool
    exponent: int
    is_full_exponent: bool
    is_p_group: bool
    is_prime_order: bool
    is_even_order: bool
    all_nonidentity_self_inverse: bool
    no_nonidentity_self_inverse: bool
    is_cyclic: bool


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[i, j]`` is the index of ``x_i * x_j``; index 0 is the identity.
    The table (nested lists or an array) is copied to int64 once.  A ragged
    table, or entries that numpy does not read as integers (floats, bools,
    text, or integers beyond 64 bits), raise NotClosedError.  Construction
    validates all four group axioms (closure, identity, unique two-sided
    inverses, associativity by full triple enumeration), so any instance can
    be trusted downstream.  If the two-sided identity sits at some index
    e != 0, the constructor swaps elements 0 and e before checking inverses,
    so that downstream vertex numbering is canonical.  Instances are
    immutable.
    """

    def __init__(self, table: Sequence[Sequence[int]] | np.ndarray, label: str = "G"):
        try:
            table = np.asarray(table)
        except ValueError as exc:
            raise NotClosedError(f"{label}: not a rectangular integer table: {exc}") from exc
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NotClosedError(f"{label}: table must be square, got shape {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise NotClosedError(f"{label}: a group has at least one element")
        if table.dtype.kind not in "iu":
            raise NotClosedError(
                f"{label}: not a rectangular integer table: entries of type {table.dtype}"
            )
        bad = np.argwhere((table < 0) | (table >= n))
        if bad.size:
            i, j = (int(v) for v in bad[0])
            raise NotClosedError(
                f"{label}: entry table[{i}][{j}] = {int(table[i, j])} not in [0, {n})"
            )
        table = table.astype(np.int64)
        # relocation indexes by table entries, so it must follow the closure check
        idx = np.arange(n)
        for identity in range(n):
            if np.array_equal(table[identity], idx) and np.array_equal(table[:, identity], idx):
                break
        else:
            raise NoIdentityError(f"{label}: no element acts as a two-sided identity")
        if identity != 0:
            swap = idx.copy()
            swap[0], swap[identity] = identity, 0
            table = swap[table[np.ix_(swap, swap)]]

        inverse = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            right = np.flatnonzero(table[i] == 0)
            if len(right) != 1 or int(table[right[0], i]) != 0:
                raise NoInverseError(
                    f"{label}: element {i} has no unique two-sided inverse"
                )
            inverse[i] = right[0]

        for i in range(n):
            left = table[table[i]]          # (x_i x_j) x_k
            right_ = table[i][table]        # x_i (x_j x_k)
            if not np.array_equal(left, right_):
                j, k = (int(v) for v in np.argwhere(left != right_)[0])
                raise NotAssociativeError(
                    f"{label}: (x{i} x{j}) x{k} = {int(left[j, k])} but "
                    f"x{i} (x{j} x{k}) = {int(right_[j, k])}"
                )

        orders = np.empty(n, dtype=np.int64)
        for i in range(n):
            x, k = i, 1
            while x != 0:
                x = int(table[x, i])
                k += 1
            orders[i] = k

        table.setflags(write=False)
        inverse.setflags(write=False)
        orders.setflags(write=False)
        self.table = table
        self.order = n
        self.label = label
        self.inverses = inverse
        self.element_orders = orders

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"

    def inverse(self, i: int) -> int:
        """Index of the unique j with x_i * x_j = identity."""
        self._check_index(i)
        return int(self.inverses[i])

    def element_order(self, i: int) -> int:
        """Least k >= 1 with x_i^k = identity."""
        self._check_index(i)
        return int(self.element_orders[i])

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.order:
            raise IndexError(f"element index {i} out of range [0, {self.order})")

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*(int(o) for o in self.element_orders))

    def profile(self) -> GroupProfile:
        """All group-side classification predicates, computed from the table."""
        n = self.order
        orders = [int(o) for o in self.element_orders]
        exponent = self.exponent
        return GroupProfile(
            order=n,
            is_abelian=self.is_abelian,
            exponent=exponent,
            is_full_exponent=exponent in orders,
            is_p_group=len(prime_factors(n)) == 1,
            is_prime_order=is_prime(n),
            is_even_order=n % 2 == 0,
            all_nonidentity_self_inverse=exponent <= 2,
            no_nonidentity_self_inverse=2 not in orders,
            is_cyclic=n in orders,
        )


def parse_cayley_table_text(text: str, label: str = "G") -> FiniteGroup:
    """Parse the plain-text Cayley table format.

    First non-comment line holds n; the next n lines hold n whitespace-separated
    indices each.  '#' starts a line comment.  Ragged or missing rows are
    rejected before any group validation runs.
    """
    return _group_from_rows(*_split_table_text(text, label), label)


def _split_table_text(text: str, label: str) -> tuple[int, list[tuple[int, str]]]:
    """The header's n and the (line number, text) of each row after it."""
    lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise ValueError(f"{label}: empty table file")
    header_line, header = lines[0]
    values = _int_row(header_line, header, label)
    if len(values) != 1 or values[0] < 1:
        raise ValueError(
            f"{label}: line {header_line}: expected a single positive integer n"
        )
    return values[0], lines[1:]


def _int_row(lineno: int, line: str, label: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise ValueError(f"{label}: line {lineno}: not an integer row: {line!r}") from exc


def _group_from_rows(n: int, body: list[tuple[int, str]], label: str) -> FiniteGroup:
    if len(body) != n:
        raise ValueError(f"{label}: expected {n} table rows, found {len(body)}")
    rows = []
    for lineno, line in body:
        row = _int_row(lineno, line, label)
        if len(row) != n:
            raise ValueError(
                f"{label}: line {lineno}: expected {n} entries, found {len(row)}"
            )
        rows.append(row)
    return FiniteGroup(rows, label=label)
