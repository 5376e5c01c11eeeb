import pytest

from qpglab import cli, config, decode

MINIMAL = "[model]\nn_qubits = 3\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (MINIMAL + "[extras]\nkey = 1\n", "unknown section [extras]"),
        (MINIMAL + "depth_typo = 2\n", "[model] unknown key 'depth_typo'"),
        (MINIMAL + MINIMAL, "section 'model' already exists"),
        # A Born policy acts on one measured bitstring; it has no shot count.
        (MINIMAL + "[policy]\nshots = 100\n", "[policy] unknown key 'shots'"),
    ],
    ids=["section", "key", "duplicate-section", "shots"],
)
def test_bad_sections_and_keys_are_rejected(tmp_path, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(config.ConfigError, match=message.replace("[", r"\[")):
        config.load_config(path)


def test_table_postfn_must_match_the_qubit_count(tmp_path):
    path = tmp_path / "table.txt"
    decode.save_table(path, decode.MostSignificantBit(2))
    assert config.build_postfn(f"table:{path}", 2, 2).n_qubits == 2
    with pytest.raises(ValueError, match="table has 2 qubits, expected 4"):
        config.build_postfn(f"table:{path}", 4, 2)


def _ini(env: str, model: str, policy: str = "") -> str:
    return f"[env]\n{env}\n[model]\n{model}\n[policy]\n{policy}\n"


CARTPOLE = "type = cartpole"
LAKE = "type = frozenlake"
BANDITS = "type = bandits\nnum_states = 8\nnum_actions = 4"

# Every error of config._cross_validate, as (file text, message).
CROSS_ERRORS = {
    "cartpole-encoder": (
        _ini(CARTPOLE + "\nencoder = binary", "n_qubits = 4"),
        "[env] cartpole needs the continuous encoder",
    ),
    "cartpole-bounds": (
        _ini(CARTPOLE + "\nbounds = 1, 2, 3", "n_qubits = 4"),
        "[env] cartpole bounds must have 4 entries",
    ),
    "cartpole-qubits": (
        _ini(CARTPOLE, "n_qubits = 3"),
        "[model] n_qubits must equal the cartpole state dimension 4, got 3",
    ),
    "frozenlake-encoder": (
        _ini(LAKE + "\nencoder = continuous", "n_qubits = 4"),
        "[env] frozenlake needs the binary encoder",
    ),
    "frozenlake-qubits": (
        _ini(LAKE, "n_qubits = 3"),
        "[model] n_qubits=3 cannot binary-encode 16 cells",
    ),
    "bandits-encoder": (
        _ini(BANDITS + "\nencoder = continuous", "n_qubits = 3"),
        "[env] bandits need the binary encoder",
    ),
    "bandits-qubits": (
        _ini(BANDITS, "n_qubits = 2"),
        "[model] n_qubits=2 cannot binary-encode 8 states",
    ),
    "bandits-optimal-map": (
        _ini(BANDITS + "\noptimal_map = bit:0", "n_qubits = 3"),
        "[env] optimal_map: bit:<j> maps need exactly 2 actions",
    ),
    "policy-postfn": (
        _ini(BANDITS, "n_qubits = 3", "postfn = nonsense"),
        "[policy] postfn: unknown postfn spec 'nonsense'",
    ),
    "policy-action-count": (
        _ini(BANDITS, "n_qubits = 3", "postfn = msb"),
        "[policy] postfn provides 2 actions, environment needs 4",
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
        "[analysis] state_sampler: sigma must be >= 0, got -1.0",
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
    assert config.load_config(path).analysis.data_sizes == (100,)
    path.write_text(MINIMAL)
    assert config.load_config(path).analysis == config.AnalysisBlock()


@pytest.mark.parametrize("case", ["sampler-sigma-text", "data-size-kappa", "data-sizes-empty"])
def test_analysis_error_exits_two_before_the_output_directory(tmp_path, capsys, case):
    line, message = ANALYSIS_ERRORS[case]
    path = tmp_path / "bad.ini"
    path.write_text(MINIMAL + f"[analysis]\n{line}\n")
    out_dir = tmp_path / "out"
    assert cli.main(["effdim", "--config", str(path), "--out-dir", str(out_dir)]) == 2
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
