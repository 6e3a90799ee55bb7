"""Child-process entry points of the benchmark.

Run with the checkout's ``src`` on ``PYTHONPATH``:

    python3 perfbench/child.py setup CONFIG
        Import mscmc, load CONFIG and build its ModelBundle, then exit.
    python3 perfbench/child.py traced SPANS_JSON MSC_ARGS...
        Run ``msc MSC_ARGS...`` with spans around the calls the CLI makes
        into each layer; write the spans to SPANS_JSON at exit.
    python3 perfbench/child.py micro OUT_JSON SEED HEART_DATA
        Time public functions of each layer after a warm-up; write the
        rates to OUT_JSON.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

import mscmc
from mscmc import engine, rng
from spans import Tracer
from workloads import WORKLOADS


def build_bundle(cfg: dict):
    """The ModelBundle the CLI would build for ``cfg``."""
    if cfg["model"] == "ar":
        return mscmc.ArModel(mscmc.ArConfig(**cfg["ar"]))
    block = cfg["logit"]
    dataset = mscmc.load_heart_dataset(block["data_path"], standardize=block["standardize"])
    posterior = mscmc.LogitPosterior(
        dataset, block["sigma_scale"] * np.eye(dataset.d), h=block["h"]
    )
    return mscmc.LogitModel(posterior, block["r"])


def cmd_setup(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        build_bundle(json.load(fh))
    return 0


def cmd_traced(spans_path: str, msc_args: list[str]) -> int:
    import mscmc.cli as cli

    tracer = Tracer()
    # Patch the names the CLI and engine look up at call time, so every call
    # they make into a layer opens a span.  Pool workers forked inside
    # msc_estimate inherit the patches, but only the parent's spans are kept.
    cli.build_initial_distribution = tracer.wrap(
        cli.build_initial_distribution, "engine.build_initial_distribution"
    )
    cli.msc_estimate = tracer.wrap(cli.msc_estimate, "engine.msc_estimate")
    engine.CategoricalSampler = tracer.wrap(engine.CategoricalSampler, "rng.CategoricalSampler")
    for name in ("ArModel", "LogitModel", "LogitPosterior", "load_heart_dataset"):
        setattr(cli, name, tracer.wrap(getattr(cli, name), "setup"))
    try:
        with tracer.span("cli.main"):
            code = cli.main(msc_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


def _rate(fn, count: int, repeats: int = 3) -> float:
    """``count`` / median seconds of ``fn()`` over ``repeats`` calls after one warm-up."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return count / statistics.median(times)


def _philox_words(stream: rng.RngStream) -> int:
    """64-bit Philox words drawn from ``stream`` since its counter was last reset."""
    state = stream.gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + int(state["buffer_pos"]) - 4


def cmd_micro(out_path: str, seed: int, heart_data: str) -> int:
    from mscmc.baselines import run_rwm, run_single_chain_gibbs
    from mscmc.logit import pg_gibbs_step, proposal_log_weight, proposal_sample

    stream = rng.derive_stream(seed, "perfbench", 0)
    out: dict[str, float] = {}

    n = 20_000

    def rekeys():
        for i in range(n):
            stream.rekey(i)

    out["rng.rekey_per_s"] = _rate(rekeys, n)

    ar_paper, ar_wide, heart = (WORKLOADS[k] for k in ("ar-paper", "ar-wide", "logit-heart"))
    model = mscmc.ArModel(mscmc.ArConfig(**ar_paper.model))

    def ar_atoms():
        for _ in range(n):
            model.log_weight(model.propose(stream))

    out["ar.atoms_per_s"] = _rate(ar_atoms, n)

    wide = mscmc.ArModel(mscmc.ArConfig(**ar_wide.model))
    functions = engine.coordinate_functions(wide.config.d)
    steps = 5_000

    def ar_steps():
        x = np.zeros(wide.config.d)
        for _ in range(steps):
            x = wide.kernel_step(stream, x)
            for f in functions:
                f(x)
            wide.f_value(x)

    out["ar.steps_per_s"] = _rate(ar_steps, steps)

    cfg = {"model": "logit", "logit": dict(heart.model, data_path=heart_data)}
    setups = []
    for _ in range(4):
        t0 = time.perf_counter()
        logit = build_bundle(cfg)
        setups.append(time.perf_counter() - t0)
    out["logit.setup_s"] = statistics.median(setups[1:])
    post = logit.posterior
    beta = post.beta_star
    atoms = 2_000

    def logit_atoms():
        for _ in range(atoms):
            proposal_log_weight(post, proposal_sample(post, stream))

    out["logit.atoms_per_s"] = _rate(logit_atoms, atoms)

    gibbs = 200

    def gibbs_steps():
        b = beta
        for _ in range(gibbs):
            b = pg_gibbs_step(stream, b, post)

    out["logit.gibbs_steps_per_s"] = _rate(gibbs_steps, gibbs)

    batches = 200
    tilts = np.abs(post.dataset.X @ beta)  # the latent draw's tilts at the mode

    def pg_batches():
        for _ in range(batches):
            rng.sample_polya_gamma_batch(stream, tilts)

    out["rng.pg_draws_per_s"] = _rate(pg_batches, batches * tilts.size)
    stream.rekey(1)
    pg_batches()
    out["rng.pg_words_per_draw"] = _philox_words(stream) / (batches * tilts.size)

    out["baselines.gibbs_steps_per_s"] = _rate(
        lambda: run_single_chain_gibbs(post, gibbs, 0, beta, seed), gibbs
    )
    rwm = 3_000
    out["baselines.rwm_steps_per_s"] = _rate(lambda: run_rwm(post, rwm, 0, beta, seed), rwm)

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return cmd_setup(rest[0])
    if mode == "traced":
        return cmd_traced(rest[0], rest[1:])
    if mode == "micro":
        return cmd_micro(rest[0], int(rest[1]), rest[2])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
