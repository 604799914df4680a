"""The README's examples run as written: its "Library use" block, then each ``pietsp`` line of its
"Command line" block, in a scratch directory.  Every test its "Design choices" table cites exists."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pietsp
from pietsp.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text[text.index(f"\n## {section}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _command_lines() -> list[list[str]]:
    """Each ``pietsp`` command of the "Command line" block, continuation lines joined, as argv."""
    joined = _block("Command line", "bash").replace("\\\n", " ")
    return [shlex.split(line) for line in joined.splitlines() if line.startswith("pietsp ")]


def test_the_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("Library use", "python"), "README.md", "exec"), {})
    table = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in table] == ["@10", "Recall", "NDCG", "PHR", "users:"]


def test_every_command_line_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "transactions.csv").write_text("user,order,item\na,1,x\na,1,y\na,2,x\nb,1,y\nb,2,z\n")
    commands = _command_lines()
    assert [argv[1] for argv in commands] == [
        "gen-synthetic", "train", "eval", "predict", "inspect", "bench", "bench", "convert"]
    for argv in commands:
        if argv[1] == "inspect":  # one line through the module's own entry point
            src = str(Path(pietsp.__file__).resolve().parents[1])
            env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            done = subprocess.run([sys.executable, "-m", "pietsp.cli", *argv[1:]], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr.decode()
        else:
            assert main(argv[1:]) == 0, argv
    assert (tmp_path / "corpus.json").exists() and (tmp_path / "vocab.json").exists()


def test_every_test_the_design_choices_table_cites_is_defined():
    """A renamed or deleted test would leave the table pinning its choice to nothing."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Design choices\n") :].split("\n## ", 2)[1]
    cited = {name for line in section.splitlines() if line.startswith("|")
             for name in re.findall(r"`(test_\w+)`", line)}
    defined = {name for path in Path(__file__).parent.rglob("*.py")
               for name in re.findall(r"^\s*def (test_\w+)\(", path.read_text(encoding="utf-8"), re.M)}
    assert cited, "the Design choices table cites no test"
    assert sorted(cited - defined) == []
