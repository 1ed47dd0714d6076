"""Agent-based simulation of the study cohort: the substitute for the
paper's 803 recruited participant devices.

Personas (regular user / organic worker / dedicated worker) are
calibrated against every statistic the paper reports (see
:mod:`repro.simulation.calibration`); :func:`run_study` builds the
full ecosystem and returns the collected :class:`StudyData`.
"""

from .accounts import AccountFactory, DeviceAccount
from .behavior import BehaviorEngine, PendingReview
from .campaigns import Campaign, CampaignBoard, PromoJob
from .clock import SECONDS_PER_DAY, days, hours
from .config import DEFAULT_SEED, SimulationConfig
from .device import DEVICE_MODELS, InstalledApp, SimDevice
from .events import DeviceEvent, EventType, ForegroundSession
from .personas import Persona, dedicated_worker, organic_worker, regular_user
from .recruitment import FunnelStage, RecruitmentFunnel, simulate_funnel
from .world import Participant, StudyData, build_world, run_study

__all__ = [
    "AccountFactory",
    "DeviceAccount",
    "BehaviorEngine",
    "PendingReview",
    "Campaign",
    "CampaignBoard",
    "PromoJob",
    "SECONDS_PER_DAY",
    "days",
    "hours",
    "DEFAULT_SEED",
    "SimulationConfig",
    "DEVICE_MODELS",
    "InstalledApp",
    "SimDevice",
    "DeviceEvent",
    "EventType",
    "ForegroundSession",
    "Persona",
    "dedicated_worker",
    "organic_worker",
    "regular_user",
    "FunnelStage",
    "RecruitmentFunnel",
    "simulate_funnel",
    "Participant",
    "StudyData",
    "build_world",
    "run_study",
]
