"""First-Chern-class engine for pushforwards along the universal curve.

Handles exactly the line bundles of the shape omega^a(sum m_j Delta_j) on the
universal curve over the n-pointed space, where Delta_j = delta_{0:{j,n+1}};
nothing more general is needed, and the degree-2 pushforward rule table is
total on that shape.  Also the equal-rank Porteous step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .exact import half
from .picard import Coefficient, DivisorClass, Space


@dataclass(frozen=True)
class FiberwiseLineBundle:
    """omega_pi^power twisted by sum over j of m_j * Delta_j, where m_j is
    twists[j] at a listed label and `twist` at every other label."""

    power: int
    twists: tuple  # ((label, m_j), ...) sorted
    twist: int

    def __init__(self, power: int, twists: Mapping[int, int], twist: int = 0):
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "twists", tuple(sorted(twists.items())))
        object.__setattr__(self, "twist", twist)


def uniform_bundle(power: int, twist: int) -> FiberwiseLineBundle:
    """The same twist at every marked point, on any space."""
    return FiberwiseLineBundle(power, {}, twist)


def total_boundary(space: Space, scalar=1) -> DivisorClass:
    """delta_irr plus every canonical boundary divisor, times scalar."""
    c = Coefficient.exact(scalar)
    return DivisorClass(space, delta_irr=c, boundary_rest=c)


def c1_pushforward(space: Space, bundle: FiberwiseLineBundle) -> DivisorClass:
    """c1 of the pushforward of the bundle along the forgetful map.

    Grothendieck-Riemann-Roch in degree 1:

        c1(push(L)) = lambda + (1/2) push(c1(L)^2 - c1(L) c1(omega)) + c1(R1),

    with c1(omega) = psi_{n+1} - sum Delta_j and the rule table
    push(psi^2) = kappa_1 = 12 lambda - delta + sum psi_j,
    push(psi Delta_j) = 0, push(Delta_j Delta_k) = 0, push(Delta_j^2) = -psi_j.
    The R1 term is taken to be zero: its identification is geometric, not
    computable here, and no bundle used in this package needs it.
    """
    a = bundle.power
    # (c1(L)^2 - c1(L) c1(omega)) has psi^2 coefficient a^2 - a and
    # Delta_j^2 coefficient d_j^2 + d_j; cross terms push forward to zero.
    # Both are products of consecutive integers, so their halves are ints.
    kappa_weight = half(a * a - a)
    # upstairs: c1(L) = a psi_{n+1} + sum d_j Delta_j with d_j = m_j - a;
    # one psi coefficient per distinct twist m
    psi_of = {m: Coefficient.exact(kappa_weight - half((m - a) * (m - a + 1)))
              for m in {bundle.twist, *(m for _, m in bundle.twists)}}
    return DivisorClass(
        space,
        lam=1 + 12 * kappa_weight,
        psi={j: psi_of[m] for j, m in bundle.twists},
        psi_rest=psi_of[bundle.twist],
        delta_irr=-kappa_weight,
        boundary_rest=-kappa_weight,
    )


def porteous_equal_rank(c1_e: DivisorClass, rank_e: int,
                        c1_f: DivisorClass) -> DivisorClass:
    """Degeneracy class of Sym^2 E -> F when both sides have equal rank:
    c1(F) - (rank E + 1) c1(E), using c1(Sym^2 E) = (rank E + 1) c1(E)."""
    if rank_e < 1:
        raise ValueError("rank must be >= 1")
    return c1_f.add(c1_e.scale(-(rank_e + 1)))
