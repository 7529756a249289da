"""Reference classification (Definitions 4-6, Example 5, Appendix B).

* Two references *intersect* when some pair of iterations touches the same
  array element (Definition 4) — an integer feasibility question solved
  exactly with the Smith normal form.
* Two references are *uniformly generated* when they share the ``G``
  matrix (Definition 5).
* *Uniformly intersecting* = both (Definition 6).  The loop body is
  partitioned into maximal classes of uniformly intersecting references
  (:func:`partition_references`); footprints of distinct classes overlap
  little or not at all, so their traffic adds (Section 3.5).

A :class:`UISet` also owns the facts that depend only on its ``G`` and
offsets, never on a tile: the Smith normal form of ``G`` and its rank,
the column reduction ``G′`` (Section 3.4.1), Theorem 4's coefficients
``u``, the members' lattice cosets, the integer kernel of ``G`` and the
data-sharing directions.  Each is computed on first use and kept;
:func:`partition_references` hands each class the Smith form it tested
its members against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .._util import exact_solve
from ..lattice.lattice import coset_coordinates
from ..lattice.snf import SNFResult, integer_kernel_basis, smith_normal_form, solve_integer
from ..lattice.unimodular import maximal_independent_columns, select_unimodular_columns
from .affine import AccessKind, AffineRef, ArrayAccess
from .spread import spread_vector

__all__ = [
    "references_intersect",
    "uniformly_generated",
    "uniformly_intersecting",
    "UISet",
    "partition_references",
    "as_uisets",
]


def references_intersect(r: AffineRef, s: AffineRef) -> bool:
    """Definition 4: do integer iterations ``i1, i2`` exist with
    ``g_r(i1) = g_s(i2)``?

    Solves ``i1·G_r − i2·G_s = a_s − a_r`` for integer ``(i1, i2)`` by
    stacking the two reference matrices.  References to different arrays
    never intersect (aliasing resolved, Section 3.3).

    Examples
    --------
    >>> import numpy as np
    >>> a = AffineRef("A", [[2]], [0])   # A[2i]
    >>> b = AffineRef("A", [[2]], [1])   # A[2i+1]
    >>> references_intersect(a, b)
    False
    """
    if r.array != s.array:
        return False
    if r.array_dim != s.array_dim:
        return False
    stacked = np.vstack([r.g, -s.g])
    rhs = s.offset - r.offset
    return solve_integer(stacked, rhs) is not None


def uniformly_generated(r: AffineRef, s: AffineRef) -> bool:
    """Definition 5: same array, same ``G`` matrix."""
    return (
        r.array == s.array
        and r.g.shape == s.g.shape
        and bool(np.all(r.g == s.g))
    )


def uniformly_intersecting(r: AffineRef, s: AffineRef) -> bool:
    """Definition 6: uniformly generated *and* intersecting.

    For uniformly generated references the intersection test reduces to
    ``a_s − a_r`` lying in the row lattice of ``G`` (the iteration-space
    difference ``x`` with ``x·G = a_s − a_r`` — cf. Theorem 3 with
    unbounded coefficients, since Definition 4 places no bounds).
    """
    if not uniformly_generated(r, s):
        return False
    return solve_integer(r.g, s.offset - r.offset) is not None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _cached:
    """A per-instance attribute computed on first read and kept.

    Like :class:`functools.cached_property`, but without its class-wide
    lock (Python < 3.12): a process forked while another thread holds
    that lock — a serve worker pool starting up — deadlocks on its
    first read.  Two threads racing here compute the same value twice.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        cache = instance.__dict__
        if self.name not in cache:
            cache[self.name] = self.func(instance)
        return cache[self.name]


@dataclass(frozen=True)
class UISet:
    """A maximal class of uniformly intersecting references.

    Attributes
    ----------
    accesses:
        The member accesses (reference + read/write kind).

    The geometry members (:attr:`snf`, :attr:`rank`, :attr:`reduced`,
    :attr:`u`, :attr:`cosets`, :attr:`kernel`, :attr:`sharing`) are
    computed on first read, kept on the instance and returned as
    read-only values shared by every caller.
    """

    accesses: tuple[ArrayAccess, ...]

    def __post_init__(self):
        if not self.accesses:
            raise ValueError("a UISet needs at least one access")

    @property
    def array(self) -> str:
        return self.accesses[0].ref.array

    @property
    def g(self) -> np.ndarray:
        """The shared reference matrix ``G``."""
        return self.accesses[0].ref.g

    @property
    def refs(self) -> tuple[AffineRef, ...]:
        return tuple(a.ref for a in self.accesses)

    @_cached
    def offsets(self) -> np.ndarray:
        """``(R, d)`` matrix of the members' offset vectors."""
        return _frozen(np.array([r.offset for r in self.refs]))

    @property
    def size(self) -> int:
        return len(self.accesses)

    def spread(self) -> np.ndarray:
        """The class's spread vector ``â`` (Definition 8)."""
        return spread_vector(self.offsets)

    def has_write(self) -> bool:
        """Does any member write (or sync-accumulate, Appendix A)?"""
        return any(a.kind.is_write_like for a in self.accesses)

    def base_ref(self) -> AffineRef:
        """A canonical member (minimal offset lexicographically)."""
        order = np.lexsort(self.offsets.T[::-1])
        return self.refs[int(order[0])]

    @_cached
    def snf(self) -> SNFResult:
        """Smith normal form of ``G``, shared by every solve against it."""
        return smith_normal_form(self.g)

    @_cached
    def rank(self) -> int:
        """``rank(G) = rank(G′)``; ``l`` exactly when ``i ↦ i·G`` is
        one-to-one (Lemma 1) and the class has Theorem-4 coefficients."""
        return self.snf.rank

    @_cached
    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """Column-reduce the class: shared ``G′`` plus per-member offsets.

        Zero columns are dropped first (Example 1), then a maximal
        independent column set is kept (Section 3.4.1), as
        :meth:`AffineRef.reduced_columns` picks it.  Within a uniformly
        intersecting class this preserves footprint sizes and overlaps
        exactly (see :meth:`AffineRef.reduce_columns`).
        """
        g = self.g
        nonzero = np.flatnonzero(g.any(axis=0))
        sub = _frozen(g[:, nonzero])
        cols = select_unimodular_columns(sub, rank=self.rank)
        if cols is None:
            cols = maximal_independent_columns(sub)
        keep = nonzero[list(cols)]
        return _frozen(g[:, keep]), _frozen(self.offsets[:, keep])

    @_cached
    def u(self) -> np.ndarray | None:
        """The ``u`` of Theorems 3-4: ``â = Σ u_i g_i`` (absolute values).

        Solved exactly over the rationals on the column-reduced ``G′``;
        the result is float (Theorem 4 is an approximation anyway and
        Example 10 shows non-unimodular ``G`` with integral ``u``;
        fractional ``u`` just means the extreme offsets do not lie on the
        footprint lattice and the dilation is fractional).  ``None`` when
        ``G′`` has dependent rows: the class has no Theorem-4 form.
        """
        if self.rank < self.g.shape[0]:
            return None
        g, offsets = self.reduced
        spread = offsets.max(axis=0) - offsets.min(axis=0)
        if not spread.any():  # one member, or coincident ones
            return _frozen(np.zeros(g.shape[0]))
        sol = exact_solve(g, spread)
        if sol is None:  # pragma: no cover - â lies in the row space by construction
            return None
        return _frozen(np.abs(np.array([float(c) for c in sol])))

    @_cached
    def cosets(self) -> tuple[np.ndarray, ...]:
        """The members' offsets in lattice coordinates of ``G′`` (needs
        :attr:`u`), per coset (:func:`~repro.lattice.lattice.coset_coordinates`):
        the corners of the members' footprint boxes in coefficient space."""
        g, offsets = self.reduced
        return tuple(_frozen(us) for us in coset_coordinates(g, offsets))

    @_cached
    def kernel(self) -> np.ndarray:
        """Integer kernel basis of ``G`` (rows): the self-reuse directions."""
        return _frozen(integer_kernel_basis(self.g, self.snf))

    @_cached
    def sharing(self) -> np.ndarray:
        """Iteration-space directions along which this class shares data.

        The rows of :attr:`kernel` plus one nonzero particular solution
        ``x0`` of ``x0·G = a_s − a_r`` per member pair.
        """
        rows = list(self.kernel)
        offs = self.offsets
        for r, s in combinations(range(self.size), 2):
            x0 = solve_integer(self.g, offs[s] - offs[r], self.snf)
            if x0 is not None and np.any(x0):
                rows.append(x0)
        if not rows:
            return _frozen(np.empty((0, self.g.shape[0]), dtype=np.int64))
        return _frozen(np.vstack(rows))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UISet{" + ", ".join(repr(a.ref) for a in self.accesses) + "}"


def partition_references(
    accesses, *, merge_policy: str = "transitive"
) -> list[UISet]:
    """Partition body accesses into maximal uniformly intersecting classes.

    ``merge_policy='transitive'`` (default) takes the transitive closure of
    the pairwise uniformly-intersecting relation, matching the paper's
    "divide the references into multiple disjoint sets".  Since the
    uniformly generated + same-coset relation *is* an equivalence (offsets
    differing by row-lattice vectors), transitivity costs nothing here.

    Duplicate references (same ``(G, a)`` and kind) are kept: they occupy
    one footprint but both appear, which matters only for access counting,
    not footprint size.

    Returns classes in first-appearance order.

    Examples
    --------
    Example 10's five references split into four classes: {B, B}, {C(i,2i,
    i+2j-1), C(i,2i,i+2j+1)}, {C(i+1,2i+2,i+2j+1)}, {A}.
    """
    accs = [a if isinstance(a, ArrayAccess) else ArrayAccess(a) for a in accesses]
    classes: list[list[ArrayAccess]] = []
    snfs: list[SNFResult | None] = []  # each class's SNF of G, once needed
    combine = any if merge_policy == "transitive" else all
    for acc in accs:
        ref = acc.ref
        for k, cls in enumerate(classes):
            # Every member shares the class's array and G, so one test of
            # uniform generation and one SNF serve the whole class.
            if not uniformly_generated(ref, cls[0].ref):
                continue
            if snfs[k] is None:
                snfs[k] = smith_normal_form(ref.g)
            if combine(
                solve_integer(ref.g, m.ref.offset - ref.offset, snfs[k]) is not None
                for m in cls
            ):
                cls.append(acc)
                break
        else:
            classes.append([acc])
            snfs.append(None)
    sets = [UISet(tuple(cls)) for cls in classes]
    for uiset, snf in zip(sets, snfs):
        if snf is not None:
            uiset.__dict__["snf"] = snf  # seed the cached member
    return sets


def as_uisets(accesses_or_sets) -> list[UISet]:
    """A list of :class:`UISet` as given, or raw accesses classified."""
    items = list(accesses_or_sets)
    if items and isinstance(items[0], UISet):
        return items
    return partition_references(items)
