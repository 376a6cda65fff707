"""Exact reduced state and thermodynamics of a damped quantum oscillator.

The package computes the equilibrium reduced density matrix of a harmonic
mode coupled to a Lorentz-Drude bosonic reservoir, extracts its
squeezed-thermal parameters and renormalized Hamiltonian, and evaluates
internal energy and heat capacity, cross-validating a continuum solver
against finite-mode Gaussian and Fock-space oracles.
"""

__version__ = "0.1.0"

from .errors import (BranchAmbiguity, ConfigError, InvalidGrid,
                     InvertedPotential, NonNormalizable, NonTraceable,
                     QbmError, TruncationError, UnstableReducedPotential,
                     ZeroTemperature)
from .spectral import (OMEGA_S, ModeList, SpectralConfig, discretize,
                       eval_spectral_density)
from .state import (GaussianKernel, Moments, kernel_to_moments,
                    moments_to_kernel)
from .continuum import matsubara_moments, solve_kernel, solve_moments
from .finite import (FockResult, Generator, TotalGaussian, build_generator,
                     finite_kernel, fock_oracle, gaussian_partial_trace,
                     log_partition_env, log_partition_total,
                     moments_from_modes, normal_mode_frequencies,
                     oracle_moments, reduced_partition, total_gaussian)
from .gibbs import (BogoliubovFrame, GibbsCoefficients, PositionForm,
                    ReducedHamiltonian, bogoliubov, coordinate_transform,
                    extended_bose_einstein, gibbs_coefficients,
                    position_form, quasiparticle_occupation,
                    reduced_hamiltonian)
from .thermo import (ThermoPoint, exact_point, heat_capacity_exact,
                     heat_capacity_incomplete, internal_energy_hamiltonian,
                     internal_energy_partition, naive_curves,
                     naive_heat_capacity, naive_internal_energy,
                     reduced_hamiltonian_at, sweep)
