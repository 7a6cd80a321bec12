"""Byte identity of round outputs and CSVs for fixed seeds.

The digests are SHA-256 over what a round hands its callers (channel input,
box output, decoded dits, accepted Byzantine set, deviations and
unresponsive garbage) and over the bytes of one `qspir simulate` CSV and
one `qspir rates` CSV. A simplification that keeps behaviour leaves them
unchanged; a change that alters an output on purpose updates the constant
and says why."""

import hashlib

from conftest import RETRIEVAL_GRID

from qspir.cli import main
from qspir.plan import Model, SchemeConfig
from qspir.protocol import run_round
from qspir.rng import Stream
from qspir.threats import BUILTIN_STRATEGIES, ThreatConfig

TRIALS = 6

ROUNDS_SHA256 = (
    "9ffe54b7b10d9e9e28f1d3740728c47644df7a10c538fefacaf55c0f773bbb63")
SIMULATE_SHA256 = (
    "058feba979a61c0af5a2b474f4bcf50ad451c6f083cc6b61363924371ca99536")
RATES_SHA256 = (
    "4b602d04937d19a589c90066e33003b01db0d897cbae33d79d40c8fb997bbb19")

SIMULATE_ARGS = ["simulate", "--model", "xbeutspir-dynamic", "--N", "10",
                 "--X", "2", "--T", "2", "--E", "1", "--U", "0", "--B", "1",
                 "--trials", "20", "--seed", "5", "--strategy",
                 "additive-random"]
RATES_ARGS = ["rates", "--model", "all", "--N", "2,4,6,8,10,12",
              "--X", "0,1,2", "--T", "0,1,2", "--E", "0,1", "--U", "0,1",
              "--B", "0,1"]


def rounds_digest() -> str:
    h = hashlib.sha256()
    for ci, (model, _, N, X, T, E, U, B) in enumerate(RETRIEVAL_GRID):
        cfg = SchemeConfig(model=Model.parse(model), N=N, K=2, X=X, T=T,
                           E=E, U=U, B=B, q=257)
        for si, tag in enumerate(BUILTIN_STRATEGIES if B else ("honest-zero",)):
            seed = 1000 * ci + si
            for trial in range(TRIALS):
                threat = ThreatConfig.random(
                    cfg, Stream(seed, f"t{trial}/placement"), strategy=tag)
                tr = run_round(cfg, seed, trial, threat=threat)
                record = (tr.theta, tr.W, tr.answers.channel, tr.y,
                          tr.result.w_theta, tr.result.accepted_set,
                          tr.answers.deviations, tr.answers.unresp_garbage)
                h.update(repr(record).encode())
    return h.hexdigest()


def csv_digest(argv, path) -> str:
    main([*argv, "--out", str(path)])
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_round_outputs_are_pinned():
    assert rounds_digest() == ROUNDS_SHA256


def test_simulate_and_rates_csvs_are_pinned(tmp_path):
    assert csv_digest(SIMULATE_ARGS, tmp_path / "sim.csv") == SIMULATE_SHA256
    assert csv_digest(RATES_ARGS, tmp_path / "rates.csv") == RATES_SHA256
