"""Leader-follower multi-agent simulation with watermark-based channel
attack detection, residual envelope Byzantine detection, and a two-bit
flag protocol separating the two."""

__version__ = "0.1.0"

from .attacks import (
    AttackScenario,
    ByzantineBehavior,
    ChannelAttack,
    Schedule,
    active_attacks,
    activity,
    byzantine_emit,
    tamper_channel,
    validate_attacks,
)
from .detectors import (
    EnvelopeConfig,
    KlDetectorConfig,
    edge_residual,
    envelope,
    envelope_factor,
    envelope_verdict,
    estimate_kl,
    gaussian_kl,
    kl_verdict,
)
from .dynamics import (
    AgentModel,
    ControllerParams,
    StateBounds,
    companion_model,
    compute_control,
    compute_state_bounds,
    eta_curve,
    noise_gain,
    platoon_model,
    settling_step,
    step_system,
    transient_metric,
)
from .engine import SimData, simulate
from .graph import (
    LocalAttackBudget,
    Topology,
    build_topology,
    check_hybrid_detectability,
    grounded_laplacian_min_eigenvalue,
    has_spanning_tree,
    laplacian,
    two_hop_relays,
)
from .harness import (
    RunReport,
    Scenario,
    ScenarioError,
    export_report,
    load_scenario,
    platoon_preset,
    run_monte_carlo,
    transient_sweep,
)
from .hybrid import (
    Classification,
    FlagPair,
    classify,
    run_protocol_step,
    select_trusted,
)
from .watermark import (
    WatermarkParams,
    apply_watermark,
    remove_watermark,
)
