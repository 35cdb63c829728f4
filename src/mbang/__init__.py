"""Structure recovery for linear non-Gaussian SEMs with multidirected edges."""

from .bench import TrialConfig, TrialOutcome, run_benchmark, score
from .cumulants import (
    CumulantTensor,
    MomentTable,
    cumulant_from_moments,
    population_cumulant_tensor,
    sample_cumulant_tensor,
    sample_moments,
)
from .discovery import (
    DiscoveryConfig,
    DiscoveryResult,
    FirstStageResult,
    PopulationCumulants,
    SampleCumulants,
    cumulant_test,
    enumerate_cliques,
    find_multidirected,
    load_first_stage,
    oracle_first_stage,
    run_mbang,
    run_mbang_population,
)
from .distributions import Noise, PRESETS, noise_from_tag
from .errors import MbangError, NumericalError, SchemaError, ValidationError
from .graphs import (
    MixedGraph,
    bidirected_subdivision,
    find_k_trek,
    has_k_trek,
    is_acyclic,
    is_bow_free,
    topological_order,
)
from .sem import (
    Dataset,
    HiddenSource,
    LsemSpec,
    center_rows,
    dedirect,
    extended_total_effects,
    marginalize,
    random_bowfree,
    simulate,
    standardize_rows,
)

__version__ = "0.1.0"
