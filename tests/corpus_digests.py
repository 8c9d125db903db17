"""Digests of a behaviour corpus: the check each corpus test runs and its re-record.

A corpus is a dict of layers, each a list of lines, one per case.  Its
record holds, per layer, the sha256 of all its lines and an 8-hex
fingerprint per line, so a mismatch names the first case that differs.
"""

import hashlib
import json

import pytest


def digests(lines: dict) -> dict:
    out = {}
    for layer, layer_lines in lines.items():
        encoded = [line.encode() for line in layer_lines]
        out[layer] = {
            "sha256": hashlib.sha256(b"\n".join(encoded)).hexdigest(),
            "cases": " ".join(hashlib.sha256(line).hexdigest()[:8] for line in encoded),
        }
    return out


def check(path, layer: str, lines: list) -> None:
    """Fail with the first case of the layer whose fingerprint left its record."""
    want, got = json.loads(path.read_text())[layer], digests({layer: lines})[layer]
    if got["sha256"] == want["sha256"]:
        return
    recorded = want["cases"].split()
    for index, (line, now, then) in enumerate(zip(lines, got["cases"].split(), recorded)):
        assert now == then, f"{layer} case {index} differs from its record: {line}"
    assert len(lines) == len(recorded), f"{layer} has {len(lines)} cases, {len(recorded)} recorded"
    pytest.fail(f"{layer} digest differs though every case fingerprint is equal")


def changes(old: dict, new: dict) -> list:
    """Per layer, how many case fingerprints changed and the first five indices."""
    out = []
    for layer, digest in new.items():
        now, then = digest["cases"].split(), old.get(layer, {}).get("cases", "").split()
        changed = [i for i, (a, b) in enumerate(zip(now, then)) if a != b]
        line = f"{layer}: {len(changed)} of {len(now)} case fingerprints changed"
        if changed:
            line += ", first " + ", ".join(map(str, changed[:5])) + (", ..." if changed[5:] else "")
        if len(now) != len(then):
            line += f"; {len(now)} cases, {len(then)} recorded"
        out.append(line)
    return out


def record(path, lines: dict) -> None:
    """Print what changed against the record at path, then write the new record."""
    new = digests(lines)
    print("\n".join(changes(json.loads(path.read_text()) if path.exists() else {}, new)))
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(", ".join(f"{layer} {len(d['cases'].split())}" for layer, d in new.items()))
