"""Benchmark fixtures: generated datasets shared across bench files.

Datasets are generated once per session into a shared temp directory;
sizes are chosen so the whole bench suite runs in a few minutes while the
record-count/byte ratios match the paper's workloads.

The bench files here replay a table from the paper by *simulating*
cluster seconds from measured byte/record metrics.  Real-clock feature
gates are the rows of ``benchmarks/gates``; end-to-end comparison of two
commits is ``benchmarks/suite``.
"""

import pytest

from benchmarks.common import SESSION_REPORTS
from repro.workloads.datagen import (
    generate_uservisits,
    generate_webpages,
)
from repro.workloads.pavlo import benchmark1 as b1
from repro.workloads.pavlo import benchmark2 as b2
from repro.workloads.pavlo import benchmark3 as b3
from repro.workloads.pavlo import benchmark4 as b4


def pytest_terminal_summary(terminalreporter):
    """Print every paper-vs-measured report after the benchmark table."""
    if not SESSION_REPORTS:
        return
    terminalreporter.write_sep("=", "paper-reproduction reports")
    for report in SESSION_REPORTS:
        terminalreporter.write_line("")
        for line in report.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bench_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("manimal-bench")


@pytest.fixture(scope="session")
def b1_input(bench_dir):
    """Benchmark 1: Rankings through AbstractTuple, rank_max 10k."""
    path = str(bench_dir / "b1_rankings.rf")
    b1.generate_input(path, n=150_000, rank_max=10_000)
    return path


@pytest.fixture(scope="session")
def b2_input(bench_dir):
    path = str(bench_dir / "b2_uservisits.rf")
    b2.generate_input(path, n=120_000, n_urls=2_000)
    return path


@pytest.fixture(scope="session")
def b3_inputs(bench_dir):
    rankings = str(bench_dir / "b3_rankings.rf")
    visits = str(bench_dir / "b3_uservisits.rf")
    b3.generate_inputs(rankings, visits, n_rankings=20_000,
                       n_uservisits=150_000, n_urls=2_000)
    return rankings, visits


@pytest.fixture(scope="session")
def b4_input(bench_dir):
    path = str(bench_dir / "b4_documents.rf")
    b4.generate_input(path, n=2_000, n_urls=500)
    return path


@pytest.fixture(scope="session")
def webpages_t3(bench_dir):
    """Table 3 WebPages: uniform ranks for exact selectivity control."""
    path = str(bench_dir / "t3_webpages.rf")
    generate_webpages(path, n=25_000, content_size=510, rank_max=1_000)
    return path


@pytest.fixture(scope="session")
def uservisits_t56(bench_dir):
    """Tables 5/6 UserVisits: time-ordered (an access log is appended in
    visit order), which is the regime where date deltas are tiny."""
    path = str(bench_dir / "t56_uservisits.rf")
    generate_uservisits(path, n=100_000, n_urls=2_000, sorted_dates=True)
    return path
