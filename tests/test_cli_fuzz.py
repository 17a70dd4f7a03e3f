"""CLI fuzz test: about 200 malformed inputs, each run through ``cli.main``
in one child process whose address space is capped at 1 GB. Every run
must end with exit code 0, 1 or 2: never 3 (an internal error such as a
MemoryError), and the child must never be killed."""

import json
import os
import random
import subprocess
import sys
import zlib

from evgesture import cli
from evgesture.events import SensorGeometry, write_binary_events
from evgesture.synth import gen_gesture_set

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

BASE_CONFIG = {
    "dbs.enabled": "true", "layers.1.n": "4", "layers.1.r": "2",
    "layers.1.tau_us": "10000", "layers.2.n": "4", "layers.2.r": "1",
    "layers.2.tau_us": "20000", "pooling.grid": "2x2", "knn.k": "1",
}
CONFIG_KEYS = [*BASE_CONFIG, "seed", "epochs", "merge_polarity", "training.mode",
               "dbs.grid", "dbs.tau_b_us", "dbs.alpha", "layers.1.reinit_window",
               "layers.3.n", "layers.0.n", "layers.x.n", "no.such.key"]
# Texts of each kind of value, many out of range, non-finite or huge, and
# texts of the wrong kind. ``epochs`` takes only small or malformed values:
# a large count is a legal request that makes training slow, not one that
# costs memory.
INTS = ["-1", "0", "1", "2", "3", "7", "15", "16", "64", "1000000000000", str(2**63)]
FLOATS = ["-1", "0", "1e-300", "0.5", "3", "1e12", "1e308", "nan", "inf", "-inf"]
GRIDS = ["0x0", "1x1", "2x2", "3x5", "16x16", "17x1", "1x17", "100000x100000",
         "-1x2", "2X2", "x", "3"]
EPOCHS = ["-1", "0", "1", "2", "1.5", "nan"]
JUNK = ["", "abc", "1.5", "0x10", "3x3", "true", "maybe", "sequential", "-0"]


def config_text(rng: random.Random) -> str:
    """The base config with one to three keys set to random texts, and now
    and then a malformed line."""
    pairs = dict(BASE_CONFIG)
    for key in rng.sample(CONFIG_KEYS, rng.randint(1, 3)):
        pool = (JUNK if rng.random() < 0.2 else EPOCHS if key == "epochs"
                else GRIDS if key.endswith("grid")
                else FLOATS if key.endswith(("tau_us", "alpha")) else INTS)
        pairs[key] = rng.choice(pool)
    text = "".join(f"{k} = {v}\n" for k, v in pairs.items())
    if rng.random() < 0.2:
        text += rng.choice(["garbage line\n", "knn.k = 1\n", "= 3\n", "\udcff\n"])
    return text


def with_header(model: bytes, fields: dict, drop: str | None) -> bytes:
    """``model`` with header fields replaced (or one dropped) and its CRC
    recomputed."""
    end = 12 + int.from_bytes(model[8:12], "little")
    header = {**json.loads(model[12:end]), **fields}
    header.pop(drop, None)
    raw = json.dumps(header).encode()
    body = len(raw).to_bytes(4, "little") + raw + model[end:]
    return model[:4] + zlib.crc32(body).to_bytes(4, "little") + body


def header_fields(rng: random.Random, n_labels: int) -> dict:
    sizes = [1, 2, 3, 15, 16, 17, 255, 65535] * 3 + [0, -1, 65536, 10**12, 1.5, "16", None]
    choices = {
        "width": lambda: rng.choice(sizes), "height": lambda: rng.choice(sizes),
        "channels": lambda: rng.choice([1, 2, 3, 255, 0, 256, True]),
        "k": lambda: rng.choice([1, 3, 4, 5, 0, 10**9, -1, "1"]),
        "labels": lambda: rng.choice([["a"] * n_labels, ["a"] * (n_labels + 1), [],
                                      list(range(n_labels)), "abc", None]),
        "config": lambda: config_text(rng) if rng.random() < 0.9 else 7,
    }
    return {key: choices[key]() for key in rng.sample(sorted(choices), rng.randint(1, 2))}


def make_cases(root, rng: random.Random) -> list[list[str]]:
    geometry = SensorGeometry(16, 16, 2)
    clips = gen_gesture_set(geometry, 1, seed=21)
    good = []
    for i, clip in enumerate(clips):
        (root / f"c{i}.evs").write_bytes(write_binary_events(clip.stream))
        good.append(f"c{i}.evs\t{clip.label}\ts{i}")
    manifest = root / "m.tsv"
    manifest.write_text("".join(line + "\n" for line in good))
    config = root / "base.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in BASE_CONFIG.items()))
    model = root / "model.bin"
    assert cli.main(["train", str(manifest), str(config), str(model)]) == 0
    model_bytes = model.read_bytes()
    clip_bytes = (root / "c0.evs").read_bytes()
    (root / "adir").mkdir()
    out = str(root / "out")
    cases = []

    def write(name: str, data: bytes) -> str:
        (root / name).write_bytes(data)
        return str(root / name)

    for i in range(60):  # EVS1 streams, truncated or with flipped bytes
        data = bytearray(clip_bytes)
        if rng.random() < 0.4:
            data = data[: rng.randrange(len(data))]
        else:
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(9) if rng.random() < 0.5 else rng.randrange(len(data))
                data[at] ^= rng.randint(1, 255)
        path = write(f"s{i}.evs", bytes(data))
        if i % 3 == 0:
            cases.append(["filter", path, out + ".evs"])
        elif i % 3 == 1:
            cases.append(["convert", path, out + ".txt", "--to", "text"])
        else:  # a clip of a manifest
            bad = write(f"s{i}.tsv", "\n".join(good[1:] + [f"{path}\tup\ts9"]).encode())
            cases.append(["eval", bad, str(model)])
    for i in range(60):  # configs
        path = write(f"c{i}.cfg", config_text(rng).encode("utf-8", "surrogateescape"))
        cases.append(["train", str(manifest), path, out + ".bin"])
    for i in range(50):  # model headers, CRC recomputed; a few plain byte flips
        if i < 40:
            data = with_header(model_bytes, header_fields(rng, len(good)),
                               rng.choice([None] * 5 + ["k", "labels", "config"]))
        else:
            data = bytearray(model_bytes)
            data[rng.randrange(len(data))] ^= rng.randint(1, 255)
        cases.append(["eval", str(manifest), write(f"h{i}.bin", bytes(data))])
    rows = ["adir\tup\ts1", str(root / "adir") + "\tup\ts1", "c0.evs\tup", "c0.evs\t\ts1",
            "c0.evs\tup\ts1\tx", "nofile.evs\tup\ts1", "c0.evs\tup\ts1\r", "\t\t",
            "c0.evs\tup\ts1\x00", "../m.tsv\tup\ts1", "m.tsv\tup\ts1", "base.cfg\tup\ts1"]
    for i in range(24):  # manifests with bad rows or directory paths
        lines = good[: rng.randint(0, len(good))] + rng.sample(rows, rng.randint(1, 2))
        rng.shuffle(lines)
        path = write(f"m{i}.tsv", "\n".join(lines).encode())
        cases.append(["eval", path, str(model)] if i % 2 else
                     ["train", path, str(config), out + ".bin"])
    cases += [["eval", str(manifest), str(root / "adir")],
              ["eval", str(root / "adir"), str(model)],
              ["eval", write("bytes.tsv", b"\xff\xfe\tup\ts1\n"), str(model)],
              ["train", str(manifest), str(config), str(root / "adir")],
              ["synth", str(manifest), "--clips-per-class", "1", "--geometry", "16x16"],
              ["bench", str(manifest), str(config), "--runs", "0"],
              ["bench", str(manifest), str(config), "--runs", "x"],
              ["filter", str(root / "c0.evs"), out + ".evs", "--grid", "99999x99999"],
              ["convert", str(root / "c0.evs"), out + ".txt", "--to", "csv"],
              ["--help"], [], ["synth"]]
    return cases


CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from evgesture import cli
out = sys.stdout
for argv in json.load(open(sys.argv[1])):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    print(json.dumps([code, err.getvalue()[-300:]]), file=out, flush=True)
"""


def test_malformed_inputs_never_exit_3(tmp_path):
    cases = make_cases(tmp_path, random.Random(13))
    assert len(cases) >= 200
    listing = tmp_path / "cases.json"
    listing.write_text(json.dumps(cases))
    done = subprocess.run([sys.executable, "-c", CHILD, str(listing)],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC_DIR})
    results = [json.loads(line) for line in done.stdout.splitlines()]
    # A child killed by a signal has a negative code; one that stops early
    # names the input it stopped at.
    stopped = cases[len(results)] if len(results) < len(cases) else None
    assert done.returncode == 0 and stopped is None, (done.returncode, stopped,
                                                      done.stderr[-2000:])
    bad = [(argv, code, err) for argv, (code, err) in zip(cases, results)
           if code not in (0, 1, 2)]
    assert not bad, bad[:5]
    codes = [code for code, _ in results]
    assert codes.count(2) > len(codes) // 2  # most inputs are malformed
