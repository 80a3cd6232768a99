#!/usr/bin/env python3
"""Integrate controlled trajectories and sample reachable sets.

Piecewise-constant controls make the flow a product of matrix
exponentials, so trajectories are exact to rounding.  Two structural
laws make good end-to-end checks: the propagator determinant depends
only on the dissipative trace, and for unital channels the
coherence-vector norm can never grow, no matter what the controls do.
"""
import numpy as np

from lindbladctl import (CoherenceVector, PiecewiseControl, determinant_check,
                         preset, propagate, purity_rate, sample_reachable)

# First, free relaxation under amplitude damping: starting from the
# maximally mixed state (the origin), the drift pulls the state toward
# the pure fixed point at rho = (0, 0, 1/sqrt(2)).

system = preset("amplitude_damping", gamma=1.0)
traj = propagate(system, PiecewiseControl.zero(3, 4.0),
                 CoherenceVector(2, [0.0, 0.0, 0.0]),
                 samples_per_segment=8)
print("free amplitude-damping relaxation:")
for t, rho, p in zip(traj.times[::2], traj.states[::2], traj.purities[::2]):
    print(f"  t = {t:4.1f}  rho_3 = {rho[2]:+.6f}  purity = {p:.6f}")

# The instantaneous purity production rate vanishes at the origin
# (purity is at its minimum there), is positive part-way up the z axis,
# and vanishes again at the pure fixed point.

fp = CoherenceVector(2, [0.0, 0.0, 1.0 / np.sqrt(2.0)])
print(f"\npurity rate at the origin:       "
      f"{purity_rate(system, CoherenceVector(2, [0, 0, 0])):.6f}")
print(f"purity rate at (0, 0, 0.3):     "
      f"{purity_rate(system, CoherenceVector(2, [0, 0, 0.3])):.6f}")
print(f"purity rate at the fixed point: {purity_rate(system, fp):.6f}")

# Now drive the same system with a two-segment control: a strong x
# rotation followed by a y rotation.  The determinant of the linear
# part of the propagator still follows exp(tr * t) exactly, because the
# rotations are traceless.

control = PiecewiseControl(((0.5, [6.0, 0.0, 0.0]),
                            (0.5, [0.0, 4.0, 0.0])))
traj = propagate(system, control, CoherenceVector(2, [0.3, 0.0, 0.4]))
print(f"\ncontrolled run: det g(T) = {traj.dets[-1]:.9f}, "
      f"exp(tr T) = {np.exp(np.trace(system.dissipator.linear)):.9f}")
print(f"worst deviation along the trajectory: "
      f"{determinant_check(traj, system):.3g}")

# Finally, Monte-Carlo sampling of the reachable set.  For a unital
# channel (here the bit flip) every sampled trajectory stays inside the
# ball of its initial norm, and the max-norm statistics over the sample
# shrink monotonically: the reachable sets are nested.

system = preset("bit_flip", gamma=0.6)
start = CoherenceVector(2, [0.2, 0.3, 0.2])
result = sample_reachable(system, start, horizon=1.0, num_samples=300,
                          seed=42)
print(f"\nbit flip, 300 random controls, start norm {start.norm():.4f}:")
print("  t      max norm over samples")
for t, m in zip(result.grid, result.max_norms):
    print(f"  {t:4.1f}   {m:.6f}")
print(f"largest single-trajectory norm increase: "
      f"{result.max_norm_increase:.3g}")
print(f"nested-ball statistics hold: {result.nested_balls_ok}")

# The same sampler on amplitude damping shows the opposite: relaxation
# toward the pure state pushes norms up from zero, which is exactly why
# the unital certificate does not apply there.

result = sample_reachable(preset("amplitude_damping", gamma=2.0),
                          CoherenceVector(2, [0.0, 0.0, 0.0]),
                          horizon=1.5, num_samples=300, seed=42)
print(f"\namplitude damping from the origin: max norm grows to "
      f"{result.max_norms[-1]:.4f} (unital: {result.unital})")
