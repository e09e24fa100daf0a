"""Orthonormal Wilson bases and tight Gabor frames on general
time-frequency lattices: exact lattice canonicalization, Zak-domain
tightness criteria, symplectic/metaplectic lattice transport, and Wilson
basis construction in C^L, for finitely supported sequences on Z, and in
a sampled continuous demonstration pipeline.
"""

from .gabor import (FrameError, frame_bounds, frame_operator, gabor_system, tighten,
                    tightness_deviation)
from .metaplectic import (ParameterSearchError, SigmaParams, apply_continuous_U,
                          meta_finite, sigma_params)
from .ring import (CanonicalDiscrete, CanonicalFinite, CanonicalReal,
                   GeneratorMatrix, LatticeError, canonical_discrete,
                   canonical_finite, ext_gcd, hnf_real, lattice_points_finite)
from .signal import DiscreteWindow, centered_dft, dft, tf_shift
from .wilson import (EquivalenceReport, WilsonSequenceFamily, WilsonSystem,
                     chirp_discrete, equivalence_report, gram_deviation,
                     riesz_bounds, riesz_spectrum, wilson_continuous_demo,
                     wilson_finite, wilson_index_set, wilson_pair)
from .zak import (FrameSymbol, cond_correlation, cond_correlation_discrete,
                  cond_quadrature, frame_symbol)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
