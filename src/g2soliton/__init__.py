"""Exact genus-two hyperelliptic identity verification with numeric harnesses.

Layers:

* curvering / flows: exact arithmetic in the function field of a genus-two
  curve and the two commuting flow derivations;
* identities / sweep: the identity catalog reduced to exact zero tests over
  seeded random curves;
* elliptic / jets / transforms: genus-one Jacobi and Weierstrass functions
  plus the profile-map factorization identities;
* pde / akns: pseudo-spectral KdV and generalized modified-flow evolution,
  the Miura pipeline, and the zero-curvature compatibility check.
"""

__version__ = "0.1.0"
