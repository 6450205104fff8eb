import io

import pytest
from hypothesis import HealthCheck, settings

from bernkit.campaign import write_report

settings.register_profile(
    "bernkit",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("bernkit")


def _render(report, format=None):
    out = io.StringIO()
    write_report(report, out, format)
    return out.getvalue()


@pytest.fixture
def render():
    """render(report, format=None): the report `write_report` writes, as one string."""
    return _render
