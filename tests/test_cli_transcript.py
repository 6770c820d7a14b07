"""The CLI prints what the golden transcript recorded: exit code, stdout
and stderr, byte for byte, for every command in tests/transcript/cli.json.
tests/make_cli_transcript.py rewrites the file after a change made on
purpose."""

import json

from helpers import TRANSCRIPT, cli_entry


def test_cli_replays_the_golden_transcript(monkeypatch):
    monkeypatch.chdir(TRANSCRIPT.parent)
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    changed = [entry["argv"] for entry in recorded if cli_entry(entry["argv"]) != entry]
    assert not changed, f"{len(changed)} of {len(recorded)} commands changed, first {changed[0]}"
