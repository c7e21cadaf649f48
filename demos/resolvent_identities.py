#!/usr/bin/env python3
"""Elementary resolvent factors and their algebraic identities.

The degree-one factors attached to one Hermitian seed multiply, in either
order, to (z-alpha) times a block projector; the indefinite-metric
identities pin down their symmetry structure, including for rank-deficient
seeds. Composing the factors along the algorithm diagonal of a moment
sequence telescopes the same way with the power (z-alpha)^(m+1).
"""

import numpy as np

from stieltjesmp import matcore
from stieltjesmp.measures import DiscreteMeasure, moments
from stieltjesmp.respoly import (
    compose_resolvent,
    v_poly,
    verify_j_identities,
    verify_product_identity,
    w_poly,
)
from stieltjesmp.schur import transform_trace


def main():
    rng = np.random.default_rng(12)
    alpha, q = -0.75, 3
    z = 1.4 + 0.9j

    herm = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    herm = 0.5 * (herm + herm.conj().T)  # indefinite is fine here
    print(f"seed: random Hermitian {q}x{q}, eigenvalues "
          + ", ".join(f"{v:.3f}" for v in np.linalg.eigvalsh(herm)))
    print(f"product identity residual at z={z}: "
          f"{verify_product_identity(alpha, herm, z):.3e}")

    # Rank-one PSD seed: the projector in the identity is now a proper one.
    b1 = rng.normal(size=(q, 1)) + 1j * rng.normal(size=(q, 1))
    low = b1 @ b1.conj().T
    print(f"\nrank-one psd seed, product identity residual: "
          f"{verify_product_identity(alpha, low, z):.3e}")

    a = low + (lambda c: c @ c.conj().T)(rng.normal(size=(q, q)))
    idents = verify_j_identities(alpha, low, z, a=a)
    print("metric identities (relative residuals):")
    for name, val in idents.items():
        print(f"  {name:24s} {val:.3e}")

    # Same structure, composed along a whole sequence.
    nodes = tuple(sorted(alpha + rng.uniform(0.5, 4.0, size=4)))
    weights = tuple((lambda c: c @ c.conj().T + 0.2 * np.eye(q))(
        rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))) for _ in nodes)
    seq = moments(DiscreteMeasure(alpha, nodes, weights), 3)
    trace = transform_trace(seq)
    vb, wb = compose_resolvent(trace)
    print(f"\ncomposed factors for a (q={q}, m={seq.m}) sequence: "
          f"degrees {vb.degree} and {wb.degree}")

    top = trace.diagonal[-1]
    proj = top @ matcore.pinv(top)
    eye = np.eye(q)
    zero = np.zeros((q, q))
    worst = 0.0
    for zz in (z, -2.0 + 0.3j, 0.1 - 1.1j, 4.5 + 2.0j):
        target = (zz - alpha) ** (seq.m + 1) * np.block(
            [[proj, zero], [zero, eye]])
        res = matcore.frob(wb(zz) @ vb(zz) - target)
        worst = max(worst, res / (1.0 + matcore.frob(target)))
    print(f"telescoping W(z) V(z) = (z-alpha)^(m+1) diag(P, I): "
          f"worst residual {worst:.3e}")

    # The individual degree-one factors are where that comes from.
    d0 = trace.diagonal[0]
    v0, w0 = v_poly(alpha, d0), w_poly(alpha, d0)
    r = matcore.frob(w0(z) @ v0(z)
                     - (z - alpha) * np.block([[d0 @ matcore.pinv(d0), zero],
                                               [zero, eye]]))
    print(f"stage-0 factor pair alone: residual {r:.3e}")


if __name__ == "__main__":
    main()
