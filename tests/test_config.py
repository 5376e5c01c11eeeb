import pytest

from qpglab import cli, config, decode
from oracles import save_table

MINIMAL = "[model]\nn_qubits = 3\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (MINIMAL + "[extras]\nkey = 1\n", "unknown section [extras]"),
        (MINIMAL + "depth_typo = 2\n", "[model] unknown key 'depth_typo'"),
        (MINIMAL + MINIMAL, "section 'model' already exists"),
        # A Born policy acts on one measured bitstring; it has no shot count.
        (MINIMAL + "[policy]\nshots = 100\n", "[policy] unknown key 'shots'"),
        # Each env type has one encoder, picked from the type; no key chooses it.
        (MINIMAL + "[env]\nencoder = binary\n", "[env] unknown key 'encoder'"),
    ],
    ids=["section", "key", "duplicate-section", "shots", "encoder"],
)
def test_bad_sections_and_keys_are_rejected(tmp_path, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(config.ConfigError, match=message.replace("[", r"\[")):
        config.load_config(path)


def test_table_postfn_must_match_the_qubit_count(tmp_path):
    path = tmp_path / "table.txt"
    save_table(path, decode.MostSignificantBit(2))
    assert config.build_postfn(f"table:{path}", 2, 2).n_qubits == 2
    with pytest.raises(ValueError, match="table has 2 qubits, expected 4"):
        config.build_postfn(f"table:{path}", 4, 2)


def _ini(env: str, model: str, policy: str = "") -> str:
    return f"[env]\n{env}\n[model]\n{model}\n[policy]\n{policy}\n"


CARTPOLE = "type = cartpole"
LAKE = "type = frozenlake"
BANDITS = "type = bandits\nnum_states = 8\nnum_actions = 4"

# Every pairing that config._build checks, as (file text, message).
CROSS_ERRORS = {
    "cartpole-bounds": (
        _ini(CARTPOLE + "\nbounds = 1, 2, 3", "n_qubits = 4"),
        "[env] cartpole bounds must have 4 entries",
    ),
    "cartpole-qubits": (
        _ini(CARTPOLE, "n_qubits = 3"),
        "[model] n_qubits must equal the cartpole state dimension 4, got 3",
    ),
    "frozenlake-qubits": (
        _ini(LAKE, "n_qubits = 3"),
        "[model] n_qubits=3 cannot binary-encode 16 states",
    ),
    "bandits-qubits": (
        _ini(BANDITS, "n_qubits = 2"),
        "[model] n_qubits=2 cannot binary-encode 8 states",
    ),
    "bandits-optimal-map": (
        _ini(BANDITS + "\noptimal_map = bit:0", "n_qubits = 3"),
        "[env] optimal_map: bit:<j> maps need exactly 2 actions",
    ),
    "bandits-optimal-map-bit": (
        _ini(
            "type = bandits\nnum_states = 8\nnum_actions = 2\noptimal_map = bit:3",
            "n_qubits = 3",
        ),
        "[env] optimal_map: 'bit:3' needs a bit index j with 0 <= j < 3",
    ),
    "policy-postfn": (
        _ini(BANDITS, "n_qubits = 3", "postfn = nonsense"),
        "[policy] postfn: unknown postfn spec 'nonsense'",
    ),
    "policy-action-count": (
        _ini(BANDITS, "n_qubits = 3", "postfn = msb"),
        "[policy] postfn: msb provides 2 actions, not 4",
    ),
    "policy-z-qubits": (
        _ini(BANDITS, "n_qubits = 3", "kind = softmax\nz_qubits = 0, 3"),
        "[policy] z_qubits entry 3 out of range",
    ),
}


@pytest.mark.parametrize("case", list(CROSS_ERRORS))
def test_every_cross_validation_error_is_reachable(tmp_path, case):
    text, message = CROSS_ERRORS[case]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(config.ConfigError) as info:
        config.load_config(path)
    assert str(info.value) == message


def test_cross_validation_error_exits_two(tmp_path, capsys):
    text, message = CROSS_ERRORS["cartpole-qubits"]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["train", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# Every [analysis] value that would fail only once compute has started.
ANALYSIS_ERRORS = {
    "sampler-sigma-text": (
        "state_sampler = normal:abc",
        "[analysis] state_sampler: could not convert string to float: 'abc'",
    ),
    "sampler-sigma-negative": (
        "state_sampler = normal:-1",
        "[analysis] state_sampler: sigma must be finite and >= 0, got -1.0",
    ),
    "sampler-sigma-inf": (
        "state_sampler = normal:inf",
        "[analysis] state_sampler: sigma must be finite and >= 0, got inf",
    ),
    "sampler-unknown": (
        "state_sampler = gaussian",
        "[analysis] state_sampler: unknown spec 'gaussian'",
    ),
    "data-size-kappa": ("data_sizes = 5000, 10", "[analysis] data_sizes: data size 10 gives kappa <= 1"),
    "data-size-below-e": ("data_sizes = 2", "[analysis] data_sizes: data size 2 must exceed e"),
    "data-sizes-empty": ("data_sizes =", "[analysis] data_sizes: need at least one data size"),
}


@pytest.mark.parametrize("case", list(ANALYSIS_ERRORS))
def test_analysis_values_are_validated_on_load(tmp_path, case):
    line, message = ANALYSIS_ERRORS[case]
    path = tmp_path / "bad.ini"
    path.write_text(MINIMAL + f"[analysis]\n{line}\n")
    with pytest.raises(config.ConfigError) as info:
        config.load_config(path)
    assert str(info.value) == message


def test_analysis_defaults_and_valid_values_load(tmp_path):
    path = tmp_path / "good.ini"
    path.write_text(MINIMAL + "[analysis]\nstate_sampler = uniform_angles\ndata_sizes = 100\n")
    assert config.load_config(path).config.analysis.data_sizes == (100,)
    path.write_text(MINIMAL)
    assert config.load_config(path).config.analysis == config.AnalysisBlock()


@pytest.mark.parametrize("case", ["sampler-sigma-text", "data-size-kappa", "data-sizes-empty"])
def test_analysis_error_exits_two_before_the_output_directory(tmp_path, capsys, case):
    line, message = ANALYSIS_ERRORS[case]
    path = tmp_path / "bad.ini"
    path.write_text(MINIMAL + f"[analysis]\n{line}\n")
    out_dir = tmp_path / "out"
    assert cli.main(["fim", "--config", str(path), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out_dir.exists()


SEED_ERRORS = {
    "negative": ("-1", "[experiment] seeds: must be >= 0, got -1"),
    "negative-among-others": ("0, 2, -5", "[experiment] seeds: must be >= 0, got -5"),
    "duplicate": ("3, 3", "[experiment] seeds: duplicate seed 3"),
    "duplicates": ("1, 4, 1, 2, 4", "[experiment] seeds: duplicate seed 1,4"),
}


@pytest.mark.parametrize("case", list(SEED_ERRORS))
def test_bad_seed_lists_exit_two_before_the_output_directory(tmp_path, capsys, case):
    seeds, message = SEED_ERRORS[case]
    path = tmp_path / "bad.ini"
    path.write_text(f"[experiment]\nseeds = {seeds}\n" + MINIMAL)
    with pytest.raises(config.ConfigError) as info:
        config.load_config(path)
    assert str(info.value) == message
    out_dir = tmp_path / "out"
    assert cli.main(["train", "--config", str(path), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out_dir.exists()


# Configs whose constructors or numbers used to fail only once a run had
# started, as (file text, message).
LOAD_ERRORS = {
    "model-missing": ("[env]\ntype = bandits\n", "[model] n_qubits is required"),
    "model-without-n_qubits": ("[model]\ndepth = 2\n", "[model] n_qubits is required"),
    "cartpole-bounds-positive": (
        _ini(CARTPOLE + "\nbounds = 0, 1, 1, 1", "n_qubits = 4"),
        "[env] bounds must be positive",
    ),
    "optimal-map-actions": (
        _ini(
            "type = bandits\nnum_states = 8\nnum_actions = 2\noptimal_map = list:0,1,5,0,1,0,1,0",
            "n_qubits = 3",
        ),
        "[env] optimal_map: optimal actions out of range",
    ),
    "map-file-missing": (
        _ini(LAKE + "\nmap_file = /nonexistent.txt", "n_qubits = 4"),
        "[env] map_file: cannot read /nonexistent.txt: No such file or directory",
    ),
    # Values are read without interpolation, so a '%' is a literal character.
    "map-file-percent": (
        _ini(LAKE + "\nmap_file = /nonexistent/50%.txt", "n_qubits = 4"),
        "[env] map_file: cannot read /nonexistent/50%.txt: No such file or directory",
    ),
    "alpha-theta-nan": (
        MINIMAL + "[train]\nalpha_theta = nan\n",
        "[train] alpha_theta: expected finite number, got 'nan'",
    ),
    "alpha-lambda-nan": (
        MINIMAL + "[train]\nalpha_lambda = nan\n",
        "[train] alpha_lambda: expected finite number, got 'nan'",
    ),
    "alpha-theta-inf": (
        MINIMAL + "[train]\nalpha_theta = inf\n",
        "[train] alpha_theta: expected finite number, got 'inf'",
    ),
    "theta-scale-negative": (
        MINIMAL + "[train]\ntheta_init = normal\ntheta_scale = -0.5\n",
        "[train] theta_scale must be finite and >= 0",
    ),
    "beta-nan": (
        MINIMAL + "[policy]\nkind = softmax\nbeta = nan\n",
        "[policy] beta: expected finite number, got 'nan'",
    ),
    "z-qubits-repeated": (
        _ini(BANDITS, "n_qubits = 3", "kind = softmax\nz_qubits = 0, 0"),
        "[policy] z_qubits entry 0 repeated",
    ),
}


@pytest.mark.parametrize("case", list(LOAD_ERRORS))
def test_run_time_failures_exit_two_on_load(tmp_path, capsys, case):
    text, message = LOAD_ERRORS[case]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(config.ConfigError) as info:
        config.load_config(path)
    assert str(info.value) == message
    out_dir = tmp_path / "out"
    assert cli.main(["train", "--config", str(path), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out_dir.exists()


EVERY_SECTION = """
[experiment]
seeds = 4, 2
[env]
type = bandits
num_states = 8
num_actions = 4
optimal_map = mod
reward = acc01
horizon = 7
slippery = yes
reward_step = -0.5
version = v1
bounds = 1, 2.5
[model]
n_qubits = 3
depth = 2
entangler = cx
[policy]
kind = softmax
postfn = msb
beta = 0.5
weight_init = 0.25
z_qubits = 2, 0
[train]
episodes = 20
batch_size = 5
alpha_theta = 0.05
gamma = 0.9
theta_init = normal
theta_scale = 0.2
lambda_init = 0.5
[analysis]
state_sampler = uniform_angles
param_sets = 3
data_sizes = 100, 1000
near_zero = 1e-6
"""


def _resolved_ini(cfg) -> str:
    """A config's provenance lines written back as INI text."""
    sections = {}
    for name, value in cfg.resolved_items():
        section, key = name.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


@pytest.mark.parametrize("text", [MINIMAL, EVERY_SECTION], ids=["minimal", "every-section"])
def test_provenance_header_loads_back_to_the_same_config(tmp_path, text):
    path = tmp_path / "first.ini"
    path.write_text(text)
    cfg = config.load_config(path).config
    resolved = tmp_path / "resolved.ini"
    resolved.write_text(_resolved_ini(cfg))
    assert config.load_config(resolved).config == cfg
