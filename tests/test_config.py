import pytest

from qpglab import config, decode

MINIMAL = "[model]\nn_qubits = 3\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (MINIMAL + "[extras]\nkey = 1\n", "unknown section [extras]"),
        (MINIMAL + "depth_typo = 2\n", "[model] unknown key 'depth_typo'"),
        (MINIMAL + MINIMAL, "section 'model' already exists"),
    ],
    ids=["section", "key", "duplicate-section"],
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
