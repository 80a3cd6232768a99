#!/usr/bin/env python3
"""Walk through the Hermitian operator basis and its structure constants.

Every other capability of the package is built on top of this layer: an
orthonormal traceless basis for N-level systems, the antisymmetric and
symmetric structure tensors, and the adjoint rotation generators that a
Hamiltonian induces on coherence vectors.
"""
import numpy as np

from lindbladctl import (adjoint_generator, gellmann_basis, m_matrix,
                         structure_tensors, verify_structure_constants)

# First, build the basis for a qubit.  The n = N^2 - 1 = 3 basis
# matrices are the Pauli matrices divided by sqrt(2), which makes them
# orthonormal under the Hilbert-Schmidt inner product tr(x y).

basis = gellmann_basis(2)
print(f"N = {basis.N}: {basis.n} traceless basis matrices")
for j, lam in enumerate(basis.lambdas, start=1):
    gram = [np.trace(lam @ other).real for other in basis.lambdas]
    print(f"  lambda_{j} column of the Gram matrix: {np.round(gram, 12)}")

# The antisymmetric structure constants f satisfy
# [lambda_j, lambda_k] = i sum_l f_jkl lambda_l.  For the qubit the only
# independent value is f_123 = sqrt(2).

print(f"\nf_123 = {basis.f[0, 1, 2]:.12f}  (sqrt(2) = {np.sqrt(2):.12f})")

# structure_tensors computes both tensors from the matrices.  Its f agrees
# with the copy stored on the basis object; d is not stored.  For the
# qubit d vanishes, since Pauli matrices anticommute to multiples of I.

f, d = structure_tensors(basis)
print(f"recomputed f deviates by {np.max(np.abs(f - basis.f)):.3g}; "
      f"max |d| = {np.max(np.abs(d)):.3g}")

# A Hamiltonian with coefficient vector h rotates the coherence vector
# through the adjoint generator sum_l h_l f_l.  For h along the third
# axis the generator is the familiar rotation about z.

omega = 0.7
gen = adjoint_generator(basis, np.array([0.0, 0.0, omega / np.sqrt(2)]))
print(f"\nadjoint generator for precession at omega = {omega}:")
print(np.round(gen.linear, 12))

# The same construction at unit coefficients reproduces the twelve
# tabulated generator matrices M1..M3 (rotations); M4..M12 come from
# the dissipative part and are covered in the channel demos.

for k in range(1, 4):
    h = np.zeros(3)
    h[k - 1] = 1.0 / np.sqrt(2.0)
    dev = np.max(np.abs(adjoint_generator(basis, h).homogeneous
                        - m_matrix(k).homogeneous))
    print(f"adjoint(e_{k}/sqrt(2)) matches M{k} to {dev:.3g}")

# Finally, cross-check the tabulated expansion coefficients of all
# pairwise brackets [M_j, M_k] against brackets recomputed from the
# matrices themselves.  The table corrects four brackets the paper
# prints differently (see BRACKET_TABLE); any disagreement would be
# listed slot by slot with both values.

report = verify_structure_constants()
print(f"\nbracket table: {report.pairs_checked} pairs, "
      f"{report.coefficients_checked} coefficients checked, "
      f"expansion residual {report.max_expansion_residual:.3g}")
if report.ok:
    print("all tabulated coefficients confirmed")
else:
    print(f"{len(report.mismatches)} tabulated coefficients disagree with "
          "the recomputed brackets:")
    for j, k, l, expected, computed in report.mismatches:
        print(f"  c_({j},{k})^{l}: tabulated {expected:+.0f}, "
              f"computed {round(computed):+d}")
