"""Fock-state lattices from operator algebras.

Build Fock bases, realize algebra generators as sparse operators, extract
the lattice graph a Hermitian operator induces on the basis, evolve states,
and compare against closed-form solutions.
"""

from .fock import BOSON, FERMION, SPIN, FockBasis, ModeSpec, boson, fermion, spin
from .operators import (
    EVEN,
    ODD,
    SparseOperator,
    bilinear_op,
    diagonal_op,
    graded_commutator,
    identity,
    ladder_ops,
    linear_combination,
    number_op,
    transfer_op,
)
from .algebra import (
    AlgebraModel,
    ClosureReport,
    RootPair,
    StructureConstants,
    build_algebra,
    extract_structure_constants,
    find_reference_states,
    lie_closure,
    lmg_seed,
    rabi_seed,
    verify_casimir,
    verify_model,
)
from .lattice import (
    FluxReport,
    FSLGraph,
    WeightLattice,
    build_fsl,
    connected_components,
    plaquette_fluxes,
    system_graph,
    weight_coordinates,
)
from .dynamics import (
    EvolutionResult,
    evolve,
    expectation_series,
    fidelity_series,
    spectrum,
)
from . import coherent, oracles

__version__ = "0.1.0"
