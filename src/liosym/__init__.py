"""Superoperator algebra and symmetry maps for damped-oscillator master
equations.

The package is organized bottom-up:

  fock        truncated ladder operators and reference states
  liouville   operator-space vectorization, superoperator calculus,
              association (tilde conjugation) and adjoint symmetry
  generators  the ten bilinear generators, their commutation table,
              generic dynamical generators, trace identities
  fourdim     the exact 4x4 ladder representation, symplectic checks
  transforms  exp(pJ) transformation steps, coefficient maps, the
              thermal dilation of the vacuum
  gaussian    stationary Gaussians, the table of the five
              transformations, their parameter flows and positivity
              domains, position-space residuals
  models      the three master-equation families, evolution, steady
              states, the transformations applied to a model
  checks      the identity suite of `liosym verify`, one ordered table of
              check groups on one sparse generator set
  cli         command-line front end (liosym verify | evolve | map |
              domain | steady)
"""

from .fock import (annihilation, coherent_projector, fock_projector,
                   momentum, number, position, random_density,
                   thermal_state)
from .fourdim import REP, SYMPLECTIC_FORM
from .gaussian import (TRANSFORMATIONS, StationaryGaussian, exact_edges,
                       fock_from_gaussian, kl2cl_theta,
                       numeric_positivity_boundary, position_rep_residual,
                       positivity_boundary, printed_forms,
                       transformed_gaussian)
from .generators import (COMMUTATION_TABLE, CONSERVING, GENERATOR_NAMES,
                         NONCONSERVING, UNITARY, CoefficientVector,
                         build_generator, ladder_superops, ten_generators)
from .liouville import (SuperOperator, associate_super, make_superoperator,
                        unvec, vec)
from .models import (DegenerateKernelError, ModelParams, Trajectory, evolve,
                     expectation_invariance_check, model_coefficients,
                     model_generator, observables, steady_state,
                     transformation)
from .transforms import (TransformSequence, TransformStep, apply_sequence,
                         coefficient_map, derivative_map, gibbs_from_vacuum,
                         superop_similarity)

__version__ = "0.1.0"
