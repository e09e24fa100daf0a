"""Orthonormal Wilson bases and tight Gabor frames on general
time-frequency lattices: exact lattice canonicalization, Zak-domain
tightness criteria, symplectic/metaplectic lattice transport, and Wilson
basis construction in C^L, for finitely supported sequences on Z, and in
a sampled continuous demonstration pipeline.
"""

from .gabor import (FrameError, GaborSystem, frame_bounds, frame_operator,
                    gabor_system, is_tight, symmetrize, tighten, tightness_deviation)
from .metaplectic import (ParameterSearchError, SigmaParams, apply_continuous_U,
                          intertwining_phase, meta_finite, metaplectic_matrix,
                          sigma_params)
from .ring import (CanonicalDiscrete, CanonicalFinite, CanonicalReal,
                   GeneratorMatrix, LatticeError, Rational, canonical_discrete,
                   canonical_finite, ext_gcd, hnf_real, lattice_points_finite)
from .signal import (DiscreteWindow, OperatorError, centered_dft, dft, herm_inv_sqrt,
                     idft, inner, norm, real_spectrum, tf_shift, unitary_dft)
from .wilson import (EquivalenceReport, PhiParams, WilsonSequenceFamily,
                     WilsonSystem, equivalence_report, gram, gram_deviation,
                     gram_discrete, periodized_gram, phi_inverse, phi_map,
                     phi_params_discrete, phi_params_finite, wilson_continuous_demo,
                     wilson_discrete, wilson_finite, wilson_index_set, wilson_pair)
from .zak import (FrameSymbol, cond_correlation, cond_correlation_discrete,
                  cond_quadrature, correlation_sums_discrete, frame_symbol)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
