"""The CLI examples of README.md run as written and print JSON, and with
--pretty print the report of that JSON."""

import json
import os
import re
import shlex

from test_cli import assert_report_renders
from weylflags import cli, cosets, fforacle

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
ENV_NAME = re.compile(r"WEYLFLAGS_[A-Z_]+")


def package_env_names():
    """Every WEYLFLAGS_* name the package's sources spell out."""
    root = os.path.dirname(cli.__file__)
    names = set()
    for entry in sorted(os.listdir(root)):
        if entry.endswith(".py"):
            with open(os.path.join(root, entry), encoding="utf-8") as handle:
                names |= set(ENV_NAME.findall(handle.read()))
    return names


def fenced(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.S | re.M)


def test_readme_cli_examples_exit_zero_with_json(capsys, monkeypatch, tmp_path):
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    (scenario,) = fenced(text, "json")
    (tmp_path / "scenario.json").write_text(scenario)
    monkeypatch.chdir(tmp_path)
    # the variables the README documents are exactly those the package reads
    names = package_env_names()
    assert {fforacle.ENV_MAX_FLAGS, cosets.ENV_MAX_QUOTIENT} <= names
    assert set(ENV_NAME.findall(text)) == names
    for name in names:
        assert f"`{name}`" in text, name
        monkeypatch.delenv(name, raising=False)
    gates = (fforacle.MASK_PAIR_GATE, fforacle.GOOD_FORM_GATE, fforacle.BLOWUP_GATE, fforacle.PRIME_GATE)
    for cap in (fforacle.DEFAULT_MAX_FLAGS, cosets.DEFAULT_MAX_QUOTIENT) + gates:
        assert f"{cap:,}" in text, cap
    lines = [
        line
        for block in fenced(text, "sh")
        for line in block.splitlines()
        if line.startswith("weylflags ")
    ]
    assert lines
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        payload = json.loads(out)
        assert cli.main(shlex.split(line)[1:] + ["--pretty"]) == 0, line
        assert_report_renders(capsys.readouterr().out, payload)
