"""Superoperator algebra and symmetry maps for damped-oscillator master
equations.

The package is organized bottom-up:

  fock        truncated ladder operators and reference states
  liouville   operator-space vectorization, superoperator calculus,
              association (tilde conjugation) and adjoint symmetry
  generators  the ten bilinear generators, their commutation table,
              generic dynamical generators, trace identities
  fourdim     the exact 4x4 ladder representation, symplectic checks
  transforms  exp(pJ) transformation steps, coefficient maps, state
              builders (thermal dilation, displacements)
  models      the three master-equation families, evolution, steady
              states, form invariance, cross-model maps
  gaussian    stationary Gaussians, positivity, transformation domains,
              position-space residuals
  checks      the identity suite of `liosym verify`, one ordered table of
              check groups on one sparse generator set
  cli         command-line front end (liosym verify | evolve | map |
              domain | steady)
"""

from .fock import (annihilation, coherent_projector, creation,
                   fock_projector, momentum, number, position,
                   random_density, thermal_state, vacuum_projector)
from .fourdim import REP, SYMPLECTIC_FORM
from .gaussian import (GaussianParams, StationaryGaussian, exact_edges,
                       fock_from_gaussian, gaussian_from_bd, hermite_psi,
                       is_positive, numeric_positivity_boundary,
                       position_rep_residual, positivity_boundary,
                       printed_forms, transformed_gaussian,
                       uncertainty_product)
from .generators import (COMMUTATION_TABLE, CONSERVING, GENERATOR_NAMES,
                         NONCONSERVING, UNITARY, CoefficientVector,
                         build_generator, ladder_superops, ten_generators)
from .liouville import (SuperOperator, associate_super, make_superoperator,
                        unvec, vec)
from .models import (DegenerateKernelError, ModelParams, Trajectory, evolve,
                     expectation_invariance_check, form_invariance,
                     map_cl_to_hpz, map_kl_to_cl, model_coefficients,
                     model_generator, observables, stability_abscissa,
                     steady_state, thermal_b)
from .transforms import (TransformSequence, TransformStep, apply_sequence,
                         coefficient_map, derivative_map,
                         diagonalize_frequency, displacement_superops,
                         gibbs_from_vacuum, superop_similarity,
                         vacuum_annihilating_K)

__version__ = "0.1.0"
