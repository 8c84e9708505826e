"""Golden digests of whole runs: the bit-exactness gate for engine rewrites.

Each case pins the sha256 of both stocks' internal-demand and return series
(warm-up included) of one run of a small config.  A change that moves any
simulated bit fails here; such a change is a model change, and its digests
are re-recorded only together with a statement of why the output moved.

The CLI cases pin every file the verbs write, byte for byte, so a refactor of
the writers, the sweep assembly or the report paths cannot move an output
unnoticed.
"""

import hashlib

import pytest

from mgmarket import EventModel, UniformCoupling, run
from mgmarket.cli import dispatch

from conftest import small_config

CASES = {
    "paper_defaults": dict(n_agents=101, horizon=200),
    "allow_hold": dict(n_agents=101, horizon=200, allow_hold=True),
    "uniform_couplings": dict(
        n_agents=101, horizon=200, coupling=UniformCoupling(0.2, 0.8, -0.3, 0.5)
    ),
    "events": dict(n_agents=101, horizon=200, events=EventModel(probability=0.05, strength=2.0)),
    "m3_s3": dict(n_agents=101, horizon=200, memory=3, n_strategies=3),
    "asymmetric_a": dict(n_agents=101, horizon=200, a=(1.0, 0.3)),
    "single_slot": dict(n_agents=101, horizon=200, n_strategies=1),
    # 301 agents, more than the 2^8 possible (m=1, S=2) tables: the S=2 agent-type kernel
    "shared_types": dict(n_agents=301, horizon=200),
    "shared_types_events": dict(n_agents=301, horizon=200, events=EventModel(0.05, 2.0)),
}

GOLDEN = {
    "paper_defaults": "c1dfe2873afda3f2b40c5d352f5bf9cd1e7ceffe790dca41ccc30a95bfba1a6b",
    "allow_hold": "52dd6d8eb500d3195c6ed6c4fcbf25131802d9dc5fbf1d2119e3b28ff0d5430e",
    "uniform_couplings": "3cd160f54c0a2c31cc63014fd81053b367203915cf8e55540caa7515ed23e4b8",
    "events": "eab7d7118a2736f24bd4f61e3746a93960557bd2ae6e483eecf2789172666087",
    "m3_s3": "2ea3a0a628aabe1c7ebd9a6280a25d9eedc10e13ce10197b36e60decb1b2aadd",
    "asymmetric_a": "07abf85613ae4d1d197ffbcde5bcba0366863d1403989eaed069ebe2db87446b",
    "single_slot": "219e81d63bf98fc2764f128c19ec99cdc7d0c72128456f99b35d995b1e89d7f9",
    "shared_types": "c92564f2a8ed91db790c113def16b80ff2da37db32ce6f69f7dcff8114b5a2e5",
    "shared_types_events": "dd7be19c1a017c046e4510e5aa4184f46fcc437f8cec7ce6e109b3ea351b100c",
}


def run_digest(config, run_index: int = 0) -> str:
    digest = hashlib.sha256()
    for series in run(config, run_index).market.stocks:
        digest.update(series.internal_demand.tobytes())
        digest.update(series.returns.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert run_digest(small_config(**CASES[name])) == GOLDEN[name]


CLI_SMALL = ["--n-agents", "21", "--horizon", "60", "--runs", "2", "--seed", "7", "--threads", "1"]

CLI_GOLDEN = {
    "appendix.csv": "062b385ed45f6d2fcc4438ec88eb7c4cdd1fd73dd747fdb6135f8f274353df73",
    "ar1_scatter.csv": "5ca5b8c5a64cea005f42c96fc35dc348268ac72869ce592bfe5f719f8616e60f",
    "ar1_traj.csv": "ffff99b8b8075bfe4a9b638c4f8b890b835b3b4854f74f09afadbd51181f2660",
    "events_scatter.csv": "f0839eeeb6844a4c22804318bd089d70bd4101b9ed6fe6d9f8d2307412e76369",
    "events_summary.json": "47ebd4df4be7d03ba4b8f297e11e2a2b8986f902bf5508383384dcfa8493b6c4",
    "events_traj.csv": "f908dc0493a7f51ecce15b23ae9446240c1a41ae66d4e334da36a491adac9a3b",
    "holds_scatter.csv": "755395872285a53f28afb65adc826526ba928666a10880640c5c0fbb9f12570d",
    "holds_summary.json": "02e3a8498faa104750725fd21c74ac9b573a537fd637b92ba0b0beb7ece0a51b",
    "holds_traj.csv": "4873a7ffc37e7cbc7d5b410930f4b48fedd0f4ea5659ec4753bbae07498326a0",
    "regress_scatter.csv": "2123c403d732f5441649a17a9dbe6710625a3d33783a644dfa88f7ca65f5d68c",
    "regress_traj.csv": "ffc9ba2db463eb056ab9909a93a631b7c320c4b02a9fbc0b2000723038a6d92b",
    "sweep_centers.csv": "15b2d893e4ee96b5a012fc5cfd0c9950ab0e1faa394f0a8d9b38fc6aa1207d35",
    "sweep_centers_scatter.csv": "c817e1e2374d747cd5a671e8547b6e7db06fcce5d1c093cbe09d625333937c3f",
    "sweep_holding.csv": "3ab538e0b0e214295868a35b005322248bd0670a0e116299fae884c500c0dd9d",
    "sweep_homogeneous.csv": "22135660b9ef4ecaea38324345982b140c37f177d205ff13146b7c03d8939af4",
    "sweep_homogeneous_scatter.csv": "c0d5706cd20b39c0952d6cb6fc515c2d69f8258693c93d66f18c0f78dbe48cd6",
    "sweep_ranges.csv": "7f77695a71ff5d1e86aa68c28d0774438ab4d12b6e30510892c22c418e7a3185",
    "sweep_events_k1.csv": "8e7d2ce664caee74091cfe94856cc94c5ddc88baa618be122d618845334cbabd",
    "sweep_events_k3.csv": "7646151a9f3bf57df31cf1e74b4b35e76a11ad77f533a1c68024e8f10b7a02f2",
    "sweep_events_scatter_k1.csv": "7ec1ddff673e9dc2b0497525637c43eea2687cfaccf71867a9026bfdf4ff3509",
    "sweep_events_scatter_k3.csv": "70e6a0246a3b39e3d70580b834b7a4bd18d7d9c30e6d81e244fd4a5f8d7145ac",
}


def _cli(*argv):
    outcome = dispatch(list(argv))
    assert outcome.exit_code == 0, outcome.message


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """sha256 of every file the CLI verbs write for small inputs, by file name."""
    directory = tmp_path_factory.mktemp("cli")

    def path(name):
        return str(directory / name)

    simulate_flags = {
        "events": ["--event-p", "0.05", "--event-k", "2"],
        "holds": ["--allow-hold", "--memory", "2", "--strategies", "3"],
    }
    for tag, flags in simulate_flags.items():
        _cli("simulate", *CLI_SMALL, *flags, "--out", path(f"{tag}_traj.csv"),
             "--scatter-out", path(f"{tag}_scatter.csv"), "--summary", path(f"{tag}_summary.json"))
    _cli("sweep", "--experiment", "events", *CLI_SMALL, "--k-values", "1,3", "--event-p", "0.05",
         "--b1-min", "-0.5", "--b1-max", "0.5", "--b1-step", "1",
         "--b2-min", "0", "--b2-max", "0.5", "--b2-step", "0.5",
         "--out", path("sweep_events.csv"), "--scatter-out", path("sweep_events_scatter.csv"))
    _cli("sweep", "--experiment", "centers", *CLI_SMALL,
         "--c1-min", "-0.5", "--c1-max", "0.5", "--c1-step", "1",
         "--c2-min", "0", "--c2-max", "0.5", "--c2-step", "0.5",
         "--out", path("sweep_centers.csv"), "--scatter-out", path("sweep_centers_scatter.csv"))
    _cli("sweep", "--experiment", "homogeneous", *CLI_SMALL,
         "--b2-min", "0.5", "--b2-max", "0.5", "--b2-step", "1",
         "--out", path("sweep_homogeneous.csv"), "--scatter-out", path("sweep_homogeneous_scatter.csv"))
    _cli("sweep", "--experiment", "holding", *CLI_SMALL, "--memory", "2", "--strategies", "3",
         "--b1-min", "-0.5", "--b1-max", "0.5", "--b1-step", "1",
         "--b2-min", "0.5", "--b2-max", "0.5", "--b2-step", "1",
         "--out", path("sweep_holding.csv"))
    _cli("sweep", "--experiment", "ranges", *CLI_SMALL, "--c1", "0.3", "--c2", "-0.2",
         "--delta1-max", "2", "--delta2-min", "1.5", "--delta2-max", "1.5",
         "--out", path("sweep_ranges.csv"))
    for verb in ("regress", "ar1"):
        _cli(verb, path("sweep_centers_scatter.csv"), "--out", path(f"{verb}_scatter.csv"))
        _cli(verb, path("events_traj.csv"), "--out", path(f"{verb}_traj.csv"))
    _cli("verify-appendix", "--samples", "3000", "--out", path("appendix.csv"))
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in directory.iterdir()}


def test_cli_output_files(cli_outputs):
    assert sorted(cli_outputs) == sorted(CLI_GOLDEN)


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_output_digest(cli_outputs, name):
    assert cli_outputs[name] == CLI_GOLDEN[name]
