"""Fock bases for registers of bosonic, fermionic, and spin modes.

A basis stores its states as one `(dim, modes)` int64 array `occ`, one row
of occupations per state: bosons count quanta up to an explicit cutoff,
fermions are 0/1, and a spin-S mode stores the level index 0..2S (magnetic
quantum number m = level - S). An optional constraint restricts the basis to
the sector of fixed total occupation.

Each state also has a mixed-radix int64 key, with the first mode most
significant and one digit per mode of radix `min(capacity, constraint) + 1`
(`capacity + 1` without a constraint). States are enumerated in ascending
tuple order, which is ascending key order, so lookups are a `searchsorted`
on the sorted keys. A basis whose radix product does not fit in int64 is
refused at construction. The enumeration order is fixed once and for all so
that indices are reproducible across runs and can be baked into golden files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .errors import InfeasibleSectorError, ResourceGuardError, StateNotInBasisError

BOSON = "boson"
FERMION = "fermion"
SPIN = "spin"

DEFAULT_BOUNDARY_WINDOW = 2  # levels next to a truncation boundary left out of identity checks
_KEY_LIMIT = 2**63 - 1  # largest int64


@dataclass(frozen=True)
class ModeSpec:
    """One register mode: its statistics and maximal occupation.

    capacity is the boson cutoff (>= 1), exactly 1 for fermions, and 2S for
    a spin-S mode (so the mode has 2S+1 levels).
    """

    kind: str
    capacity: int

    def __post_init__(self):
        if self.kind not in (BOSON, FERMION, SPIN):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if not isinstance(self.capacity, int) or self.capacity < 1:
            raise ValueError("mode capacity must be a positive integer")
        if self.kind == FERMION and self.capacity != 1:
            raise ValueError("fermion capacity is fixed to 1")

    @property
    def levels(self) -> int:
        return self.capacity + 1

    @property
    def spin_s(self) -> Fraction:
        if self.kind != SPIN:
            raise ValueError("spin_s is only defined for spin modes")
        return Fraction(self.capacity, 2)


def boson(cutoff: int) -> ModeSpec:
    """Bosonic mode with occupations 0..cutoff. The cutoff is mandatory."""
    return ModeSpec(BOSON, cutoff)


def fermion() -> ModeSpec:
    return ModeSpec(FERMION, 1)


def spin(s) -> ModeSpec:
    """Spin mode for half-integer or integer s > 0, stored as 2s+1 levels."""
    two_s = Fraction(s) * 2
    if two_s.denominator != 1 or two_s <= 0:
        raise ValueError(f"spin quantum number must be a positive half-integer, got {s}")
    return ModeSpec(SPIN, int(two_s))


def _enumerate_constrained(capacities, total):
    """Occupation rows with given per-mode capacities summing to total, in
    ascending lexicographic order. Built one mode at a time: every partial
    row is extended by each value that still leaves a completable remainder."""
    suffix_cap = np.concatenate([np.cumsum(capacities[::-1])[::-1], [0]])
    rows = np.zeros((1, 0), dtype=np.int64)
    remaining = np.array([total], dtype=np.int64)
    for pos, cap in enumerate(capacities):
        lo = np.maximum(0, remaining - suffix_cap[pos + 1])
        hi = np.minimum(cap, remaining)
        counts = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(len(rows)), counts)
        first = np.cumsum(counts) - counts
        value = lo[parent] + np.arange(len(parent)) - first[parent]
        rows = np.column_stack([rows[parent], value])
        remaining = remaining[parent] - value
    return rows


def _enumerate_unconstrained(capacities):
    levels = [c + 1 for c in capacities]
    return np.indices(levels, dtype=np.int64).reshape(len(levels), -1).T.copy()


class FockBasis:
    """Ordered, bijectively indexed basis of occupation rows.

    `occ[i]` holds the occupations of state i and `keys[i]` its mixed-radix
    key (see the module docstring). The ordering is plain ascending tuple
    order on the occupations (first mode most significant), so the all-zero
    state comes first when present and within a fixed-N two-mode sector
    |j, N-j> appears at index j. `states`, `state_at` and iteration give
    plain tuples, built from `occ` on demand.

    An unsatisfiable `constraint` raises InfeasibleSectorError rather than
    giving an empty basis, and ResourceGuardError is raised when the keys
    would overflow int64.
    """

    def __init__(self, modes, constraint=None):
        modes = list(modes)
        if not modes:
            raise ValueError("at least one mode is required")
        if not all(isinstance(m, ModeSpec) for m in modes):
            raise TypeError("modes must be ModeSpec instances")
        self.modes = tuple(modes)
        if constraint is not None and not isinstance(constraint, int):
            raise TypeError("the constraint must be an int or None")
        self.constraint = constraint

        capacities = [m.capacity for m in self.modes]
        if self.constraint is not None:
            if self.constraint < 0:
                raise InfeasibleSectorError(
                    f"total-number constraint must be non-negative, got {self.constraint}"
                )
            if self.constraint > sum(capacities):
                raise InfeasibleSectorError(
                    f"constraint N={self.constraint} exceeds the capacity sum "
                    f"{sum(capacities)} of the mode list"
                )
            radix = [min(c, self.constraint) + 1 for c in capacities]
        else:
            radix = [c + 1 for c in capacities]
        if prod(radix) > _KEY_LIMIT:
            raise ResourceGuardError(
                f"the radix product {prod(radix)} of {len(radix)} modes exceeds the "
                "int64 range of basis keys"
            )
        self._radix = np.array(radix, dtype=np.int64)
        # place value of each mode's digit; the first mode is most significant
        self._place = np.array(
            [prod(radix[i + 1:]) for i in range(len(radix))], dtype=np.int64
        )

        if self.constraint is not None:
            occ = _enumerate_constrained(capacities, self.constraint)
        else:
            occ = _enumerate_unconstrained(capacities)
        occ.flags.writeable = False
        self.occ = occ
        self.keys = occ @ self._place
        self.keys.flags.writeable = False

    def __len__(self):
        return self.occ.shape[0]

    def __iter__(self):
        return map(tuple, self.occ.tolist())

    def __eq__(self, other):
        return (
            isinstance(other, FockBasis)
            and self.modes == other.modes
            and self.constraint == other.constraint
        )

    def __repr__(self):
        kinds = ",".join(f"{m.kind}({m.capacity})" for m in self.modes)
        return f"FockBasis([{kinds}], N={self.constraint}, dim={len(self)})"

    @property
    def dim(self) -> int:
        return self.occ.shape[0]

    @property
    def states(self) -> tuple:
        """All occupation tuples in basis order (built on each access)."""
        return tuple(self)

    def key_of(self, occ) -> np.ndarray:
        """Mixed-radix keys of occupation rows (one row or a 2D array). The
        key is linear in the occupations, so the key of a difference of two
        rows is the shift between their keys."""
        return np.asarray(occ, dtype=np.int64) @ self._place

    def indices_of_keys(self, keys) -> np.ndarray:
        """Basis index of each key, -1 where the key is not a basis state."""
        keys = np.asarray(keys, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self) - 1)
        return np.where(self.keys[pos] == keys, pos, -1)

    def _lookup(self, state):
        """(tuple, index or -1); entries outside a mode's radix, or a tuple of
        the wrong length, are never encoded, since they would alias the key
        of another state."""
        occ = tuple(int(v) for v in state)
        if len(occ) != len(self.modes) or any(
            not 0 <= v < r for v, r in zip(occ, self._radix.tolist())
        ):
            return occ, -1
        return occ, int(self.indices_of_keys(self.key_of(occ)))

    def index_of(self, state) -> int:
        """Position of an occupation tuple; inverse of state_at."""
        occ, index = self._lookup(state)
        if index < 0:
            raise StateNotInBasisError(f"occupation tuple {occ} is not in {self!r}")
        return index

    def state_at(self, i) -> tuple:
        return tuple(self.occ[i].tolist())

    def contains(self, state) -> bool:
        return self._lookup(state)[1] >= 0

    def vector(self, state) -> np.ndarray:
        """Unit coefficient vector for a basis state."""
        v = np.zeros(len(self), dtype=complex)
        v[self.index_of(state)] = 1.0
        return v

    def occupations_of_mode(self, mode) -> np.ndarray:
        """Occupation of one mode across all basis states, as an int array."""
        return self.occ[:, mode].copy()

    def interior_mask(self, truncated_modes=(), two_sided_modes=()) -> np.ndarray:
        """Boolean mask of states at least DEFAULT_BOUNDARY_WINDOW levels from the
        listed truncation boundaries: the top ones of each `truncated_modes`
        mode, both ends of each `two_sided_modes` mode."""
        mask = np.ones(len(self), dtype=bool)
        for m in truncated_modes:
            mask &= self.occ[:, m] <= self.modes[m].capacity - DEFAULT_BOUNDARY_WINDOW
        for m in two_sided_modes:
            occ = self.occ[:, m]
            mask &= (occ <= self.modes[m].capacity - DEFAULT_BOUNDARY_WINDOW) & (occ >= DEFAULT_BOUNDARY_WINDOW)
        return mask
