"""Free flight from the slit plane to the detector plane.

Propagation is exact in the momentum representation: one FFT, a quadratic
phase exp(−iħk²t/2m), one inverse FFT.  Norm and the momentum distribution
are invariants of free flight; position spread grows by the textbook
Gaussian law w(t) = w₀√(1 + (ħt/2mw₀²)²), which also supplies the a-priori
check that the spread state still fits the grid.  Narrower packets fan out
faster, which is exactly why a sharp slit at station A makes the *observed*
pattern behind it wider, with no change on the remote side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TailLeakError
from .wavefunction import WaveFunction1D, position_stats, require_tails, wavenumbers


@dataclass(frozen=True, slots=True)
class EvolutionParams:
    """Flight time plus the mass and ħ it is measured with."""

    time: float
    mass: float = 1.0
    hbar: float = 1.0


def gaussian_width_at(w0: float, ep: EvolutionParams) -> float:
    """Position spread of an initially minimal Gaussian of width w₀ after t."""
    spread = ep.hbar * ep.time / (2.0 * ep.mass * w0 ** 2)
    return w0 * math.sqrt(1.0 + spread ** 2)


def free_propagate(wf: WaveFunction1D, ep: EvolutionParams) -> WaveFunction1D:
    """Evolve freely for ep.time; unitary, so the norm is preserved.

    Raises ``TailLeakError`` up front when the predicted final width cannot
    sit inside the grid with 6-spread clearance, and again after the fact if
    the propagated amplitudes actually reach the boundary.
    """
    if ep.time < 0:
        raise ValueError("evolution time must be >= 0")
    w_now = position_stats(wf).std
    if w_now > 0:
        w_pred = gaussian_width_at(w_now, ep)
        if w_pred > wf.grid.half_extent / 6.0:
            raise TailLeakError(
                f"predicted width {w_pred:.3g} exceeds grid half-extent/6 "
                f"({wf.grid.half_extent / 6.0:.3g}); enlarge the grid"
            )
    k = wavenumbers(wf.grid)
    phase = np.exp(-1j * ep.hbar * k ** 2 * ep.time / (2.0 * ep.mass))
    amps = np.fft.ifft(np.fft.fft(wf.amps) * phase)
    out = WaveFunction1D(grid=wf.grid, amps=amps, norm_tag=wf.norm_tag)
    require_tails(out)
    return out
