"""NAC-colourings, stable cuts, flexible realisations, and random-graph
hitting-time experiments."""

from .errors import BudgetExceeded, CycleSpaceTooLarge, PreconditionError
from .graphs import (
    BipartitionResult,
    ComponentLabelling,
    Graph,
    bipartition,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    every_vertex_in_triangle,
    induced_delete,
    is_stable,
    path_graph,
    triangle_count,
)
from .nac import (
    Colour,
    EdgeColouring,
    NacEnumeration,
    NacVerdict,
    StableWitness,
    TriangleClasses,
    monochromatic_components,
    nac_check,
    nac_check_oracle,
    nac_count,
    nac_enumerate,
    nac_exists,
    stable_witnesses,
    triangle_classes,
)
from .cuts import (
    CutCertificate,
    SDecomposition,
    decompose_s,
    firm_cut_exists,
    sprime_holds,
    stable_cut_exists,
    stable_cut_to_nac,
)
from .randmodels import (
    HittingRecord,
    ProcessTrace,
    RandomSource,
    gnm,
    gnp,
    hitting_times,
    p_star,
    process,
    regular_configuration,
    replay_trace,
)
from .flex import FlexFamily, FlexReport, build_flex, sample_positions, verify_flex
from .experiments import (
    HittingResult,
    RegularNacResult,
    SweepResult,
    SweepSpec,
    emit,
    hitting_equality_experiment,
    regular_nac_lower_bound,
    run_sweep,
)

__version__ = "0.1.0"
