"""First-Chern-class engine for pushforwards along the universal curve.

Handles exactly the line bundles omega^a(m sum_j Delta_j), a >= 1, on the
universal curve over the n-pointed space, where Delta_j = delta_{0:{j,n+1}}
and every marked point carries the same twist m; nothing more general is
needed, and the degree-2 pushforward rule table is total on that shape.
Also the equal-rank Porteous step.
"""

from __future__ import annotations

from .exact import half
from .picard import Coefficient, DivisorClass, Space


def total_boundary(space: Space, scalar=1) -> DivisorClass:
    """delta_irr plus every canonical boundary divisor, times scalar."""
    c = Coefficient.exact(scalar)
    return object.__new__(DivisorClass)._store(space, delta_irr=c, rest=c)


def c1_pushforward(space: Space, power: int, twist: int) -> DivisorClass:
    """c1 of the pushforward of omega^power(twist * sum Delta_j) along the
    forgetful map.

    Grothendieck-Riemann-Roch in degree 1:

        c1(push(L)) = lambda + (1/2) push(c1(L)^2 - c1(L) c1(omega)) + c1(R1),

    with c1(omega) = psi_{n+1} - sum Delta_j and the rule table
    push(psi^2) = kappa_1 = 12 lambda - delta + sum psi_j,
    push(psi Delta_j) = 0, push(Delta_j Delta_k) = 0, push(Delta_j^2) = -psi_j.
    The table drops c1(R1).  For power >= 2 R1 vanishes on the bundles used
    here, and for power 1 with twist >= 0 it is O or 0.  For power 1 with a
    negative twist (the paper's E) the R1 term is taken to be zero: its
    identification is geometric, not computable here, and no bundle used in
    this package needs it.  Below power 1 the table is wrong (pi_* O = O has
    c1 = 0), so a power < 1, or a power or twist that is not an int, raises
    ValueError.  So does a negative fibre degree: c1(L) = power c1(omega) +
    twist sum Delta_j, and omega and Delta_j have fibre degrees 2g-2 and 1, so
    L has degree power(2g-2) + twist n; below 0 pi_* L = 0, not the table's
    c1(pi_! L).
    """
    if type(power) is not int or type(twist) is not int:
        raise ValueError(f"power {power!r} and twist {twist!r} must be ints")
    if power < 1:
        raise ValueError(f"power {power} < 1: R1 pi_* L is not zero there")
    if (degree := power * (2 * space.g - 2) + twist * space.n) < 0:
        raise ValueError(f"negative fibre degree {degree}: pi_* L = 0")
    # upstairs: c1(L) = a psi_{n+1} + d sum Delta_j with a = power and
    # d = twist - a.  (c1(L)^2 - c1(L) c1(omega)) has psi^2 coefficient
    # a^2 - a and Delta_j^2 coefficient d^2 + d; cross terms push forward to
    # zero.  Both are products of consecutive integers, so their halves are
    # ints.
    kappa_weight = half(power * power - power)
    d = twist - power
    return object.__new__(DivisorClass)._store(
        space,
        lam=Coefficient.exact(1 + 12 * kappa_weight),
        delta_irr=Coefficient.exact(-kappa_weight),
        psi_rest=Coefficient.exact(kappa_weight - half(d * d + d)),
        rest=Coefficient.exact(-kappa_weight),
    )


def porteous_equal_rank(c1_e: DivisorClass, rank_e: int,
                        c1_f: DivisorClass) -> DivisorClass:
    """Degeneracy class of Sym^2 E -> F when both sides have equal rank:
    c1(F) - (rank E + 1) c1(E), using c1(Sym^2 E) = (rank E + 1) c1(E)."""
    if type(rank_e) is not int:
        raise ValueError(f"rank {rank_e!r} is not an int")
    if rank_e < 1:
        raise ValueError("rank must be >= 1")
    return c1_f.add(c1_e.scale(-(rank_e + 1)))
