"""Antagonistic actuation numerics: variable stiffness and variable
aerodynamic damping through co-contraction."""

from .aero import (
    AffineThrustModel,
    RotorGeometry,
    bet_numeric_thrust,
    derive_coefficients,
    hardening_rate,
    inflow_sensitivity,
    monotone_regime_bound,
    speed_sensitivity,
    thrust,
    thrust_inverse,
)
from .antagonistic import (
    AntagonisticActuator,
    ChannelLaw,
    ConvergenceError,
    FiberPath,
    fiber_tangent,
    monotonicity_sweep,
    passive_coefficient,
    passive_promptness_relation,
    promptness,
    task_output,
    trace_fiber,
)
from .dual_rotor import (
    AllocationResult,
    DualRotor,
    TrimPoint,
    allocate,
    as_antagonistic_at_trim,
    damping_at_trim,
    force_promptness,
    net_force,
)
from .dynamics import (
    BodyConfig,
    InputSchedule,
    SegmentRecord,
    Trajectory,
    active_force,
    analytic_response,
    apparent_damping,
    equilibrium_velocity,
    mode_decomposition,
    simulate,
)
from .vsa import TendonLaw, VsaConfig, as_antagonistic, joint_torque, stiffness, torque_promptness

__version__ = "0.1.0"
