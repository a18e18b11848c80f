"""Photon-recoil spectroscopy of a two-ion crystal, unresolved-sideband regime.

Simulates the motional-state population dynamics of a sympathetically
cooled target ion driven by a broad transition or broad laser, and the
fluorescence readout spectra obtained through red-sideband shelving of
the co-trapped readout ion.
"""

import os

# The dense solves are small (a few hundred states): a second OpenBLAS
# thread only contends for the cores.  OpenBLAS reads this once, when numpy
# is first imported: a value already set wins, and importing numpy before
# recoilspec leaves OpenBLAS at its own default.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .constants import ATOMIC_MASS, C, HBAR, ion_mass_kg
from .ion_mechanics import (BeamGeometry, IonSpecies, TwoIonSystem, lamb_dicke,
                            mode_eigenvectors, mode_frequencies)
from .coupling import xi, xi_lamb_dicke, xi_mode_table
from .radiation import (EmissionPattern, LaserField, QuadratureError,
                        TransitionLine, base_rate, composite_target_lineshape,
                        effective_saturation_intensity,
                        effective_spectral_density, emission_coefficients,
                        saturation_intensity)
from .rate_engine import (PopulationState, RateMatrix, SpectroscopyScenario,
                          build_rate_matrix, evolve_series, scaled_time)
from .readout import ReadoutPulse, fluorescence_probability, pi_pulse, pi_time
from .scan_fit import (FitError, FitResult, SpectrumRecord, WidthDepthPoint,
                       fit_lorentzian, numeric_fwhm_depth, readout_spectrum,
                       width_depth_curves)
from .reduced_model import (reduced_kernels, reduced_populations,
                            reduced_signal, reduced_spectrum)
from . import presets

__version__ = "0.1.0"
