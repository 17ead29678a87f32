"""carriernav: carrier-graph scene representation and displaced-object
navigation benchmark on a deterministic grid world."""

__version__ = "0.1.0"

from .bench import (
    BenchError,
    SuiteReport,
    full_coverage_tour,
    mean_spl,
    run_sequence,
    run_suite,
    spl,
    success_rate,
    tasks_sr,
)
from .features import (
    DEFAULT_EMBEDDING_DIM,
    cosine_similarity,
    embed_text,
)
from .graph import (
    CarrierNode,
    Crsg,
    CrsgConfig,
    GraphError,
    Query,
    QueryError,
    assign_carried,
    build_crsg,
    carrying_predicate,
    nearest_carrier,
    query_target,
    select_carrier_candidates,
)
from .policy import (
    CandidateTarget,
    EpisodeResult,
    NavAction,
    NavState,
    PolicyConfig,
    PolicyError,
    Task,
    VARIANTS,
    VariantSpec,
    confirm_target,
    decide,
    init_state,
    priority_score,
    run_task,
    transition,
)
from .priors import CarrierPriorOracle, CarrierSummary, KeywordPriorOracle, OracleError
from .scenarios import (
    Scenario,
    ScenarioError,
    build_scenario,
    generate_scenarios,
    load_scenario,
)
from .scene import (
    Box3,
    GridSpec,
    ObjectInstance,
    Room,
    SceneError,
    SceneMap,
    load_scene,
    save_scene,
    scene_from_dict,
)
from .update import (
    CarriedDiff,
    MatchConfig,
    UpdateError,
    apply_update,
    match_carrier,
    reconcile_carried,
)
from .world import (
    DisplacementEvent,
    GridWorld,
    Observation,
    Pose,
    SensorConfig,
    UnreachableGoalError,
    WorldError,
)

__all__ = [name for name in dir() if not name.startswith("_")]
