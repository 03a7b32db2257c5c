"""seeksim: disk-arm scheduling simulation and comparison."""

from .model import (
    DiskGeometry,
    Instance,
    OutOfRangeError,
    Schedule,
    SchedulingError,
    TransferModel,
    average_seek,
    rotational_overhead,
    transfer_time,
    validate_instance,
)
from .report import (
    ALGORITHM_ORDER,
    CampaignSummary,
    ComparisonReport,
    PUBLISHED_TABLES,
    display,
    emit,
    run_comparison,
    run_property_campaign,
    run_schedule,
)
from .schedulers import (
    brute_force_optimal,
    schedule_cscan,
    schedule_fifo,
    schedule_look,
    schedule_odsa,
    schedule_scan,
    schedule_sstf,
)
from .workload import (
    BENCHMARK_CASES,
    ParseError,
    generate,
    parse_requests,
    reference_case,
    render_requests,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_ORDER",
    "BENCHMARK_CASES",
    "CampaignSummary",
    "ComparisonReport",
    "DiskGeometry",
    "Instance",
    "OutOfRangeError",
    "ParseError",
    "PUBLISHED_TABLES",
    "Schedule",
    "SchedulingError",
    "TransferModel",
    "average_seek",
    "brute_force_optimal",
    "display",
    "emit",
    "generate",
    "parse_requests",
    "reference_case",
    "render_requests",
    "rotational_overhead",
    "run_comparison",
    "run_property_campaign",
    "run_schedule",
    "schedule_cscan",
    "schedule_fifo",
    "schedule_look",
    "schedule_odsa",
    "schedule_scan",
    "schedule_sstf",
    "transfer_time",
    "validate_instance",
]
