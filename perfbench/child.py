"""Benchmark child process: the only part of the benchmark that imports
``repro``, so every set-up it times starts from a fresh interpreter.

    python3 perfbench/child.py setup  --workload train-movie --seed 3
    python3 perfbench/child.py run    --workload train-movie --seed 3 \\
        --train-seconds 20 --trace 0 --out result.json
    python3 perfbench/child.py expect --checkpoint ckpt --seed 3 \\
        --index-users 90 --out expect.json

``setup`` and ``run`` print ``READY {...}`` once a ``Trainer`` exists (the
parent times set-up up to that line).  ``run`` then trains for the given
budget and writes its result JSON.  ``expect`` loads an exported
checkpoint and writes what the server must answer for a sample of users.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402

from workloads import N_CANDIDATES, TOP_K, TRAIN_WORKLOADS, WIDEKG_PROFILE  # noqa: E402

#: Measured epochs a run makes even when the budget is shorter.
MIN_EPOCHS = 3
MIN_EPOCHS_TRACED = 4  # two traced, two untraced


def _say(tag: str, payload: dict) -> None:
    print(f"{tag} {json.dumps(payload)}", flush=True)


def _import_repro() -> float:
    import repro  # noqa: F401

    return time.perf_counter() - _T0


def build_dataset(workload: str, seed: int):
    from repro.data import RecDataset, SyntheticProfile, generate_dataset
    from repro.data import generate_profile, split_interactions

    if workload == "train-movie":
        return generate_profile("movie", seed=seed)
    profile = SyntheticProfile(**WIDEKG_PROFILE)
    interactions, kg, _ = generate_dataset(profile, seed)
    return RecDataset(
        name=profile.name,
        n_users=profile.n_users,
        n_items=profile.n_items,
        kg=kg,
        splits=split_interactions(interactions, seed=seed),
    )


def set_up(workload: str, seed: int):
    """Fresh process → dataset → model → ``Trainer``; prints READY."""
    import_s = _import_repro()
    from repro.core import CGKGR, paper_config
    from repro.training import Trainer, TrainerConfig

    spec = TRAIN_WORKLOADS[workload]
    t = time.perf_counter()
    dataset = build_dataset(workload, seed)
    dataset_s = time.perf_counter() - t
    t = time.perf_counter()
    model = CGKGR(dataset, paper_config(spec["preset"]), seed=seed)
    trainer = Trainer(model, TrainerConfig(eval_max_users=spec["eval_users"], seed=seed))
    trainer_s = time.perf_counter() - t
    _say("READY", {"import_s": import_s, "dataset_s": dataset_s, "trainer_s": trainer_s})
    return trainer


# ----------------------------------------------------------------------
def top_degree_users(dataset, n: int):
    """The ``n`` most active training users, as ``repro serve --index-users``
    picks them."""
    import numpy as np

    degree = np.bincount(dataset.train.users, minlength=dataset.n_users)
    return np.argsort(-degree, kind="stable")[:n]


def offline_expectations(model, index_users, seed: int) -> dict:
    """What the server must answer for a sample of users: the offline
    ``TopKIndex.topk`` ranking for three indexed and three fallback users,
    and ``model.predict`` for three users' random ``/score`` candidates."""
    import numpy as np
    from repro.serve import TopKIndex

    dataset = model.dataset
    rng = np.random.default_rng(seed + 101)
    indexed = sorted(int(u) for u in index_users)
    cold = sorted(set(range(dataset.n_users)) - set(indexed))
    picked = []
    for group in (indexed, cold):
        if group:
            picked += rng.choice(group, size=min(3, len(group)), replace=False).tolist()
    offline = TopKIndex.build(
        model, users=picked, mask_splits=[dataset.train, dataset.valid], mode="dense"
    )
    items, scores = offline.topk(picked, TOP_K)
    recommend = [
        {"user": int(u), "items": items[pos].tolist(), "scores": scores[pos].tolist()}
        for pos, u in enumerate(picked)
    ]
    score = []
    for user in rng.choice(dataset.n_users, size=min(3, dataset.n_users), replace=False):
        candidates = rng.choice(dataset.n_items, size=min(N_CANDIDATES, dataset.n_items),
                                replace=False)
        predicted = model.predict(np.full(candidates.size, int(user)), candidates)
        score.append({
            "user": int(user), "items": candidates.tolist(), "scores": predicted.tolist(),
        })
    return {"recommend": recommend, "score": score}


# ----------------------------------------------------------------------
def _epoch_layers(log, since: int, until: int) -> dict:
    """Per-layer self time (ms), counts and coverage of one traced epoch."""
    self_ms = {k: 1e3 * v for k, v in log.self_times(since, until).items()}
    self_ms.pop("epoch")  # the unattributed trainer glue
    wall_ms = 1e3 * log.inclusive_times(since, until)["epoch"]
    named = sum(self_ms.values())
    steps = sum(1 for span in log.spans[since:until] if span[0] == "optimizer.step")
    return {"layers_ms": self_ms, "steps": steps, "accounted_frac": named / wall_ms}


def _eval_layers(log, since: int, until: int) -> dict:
    inclusive = log.inclusive_times(since, until)
    score = inclusive.get("eval.score", 0.0)
    return {"eval.score_ms": 1e3 * score, "eval.rank_ms": 1e3 * (inclusive["eval"] - score)}


def _train(train_epoch, epoch: int) -> float:
    """One epoch's loss, NaN when ``Trainer.train_epoch`` stopped on a
    non-finite loss: the run then ends and the parent's loss check fails."""
    from repro.obs import NonFiniteLossError

    try:
        return train_epoch(epoch)
    except NonFiniteLossError:
        return math.nan


def run(args) -> None:
    from layertrace import LayerTrace, SpanLog

    trainer = set_up(args.workload, args.seed)
    model = trainer.model
    losses = [_train(trainer.train_epoch, 0)]  # warm-up epoch and eval, not timed
    last_eval = trainer.evaluate() if math.isfinite(losses[0]) else {}
    log = SpanLog()
    layer_trace = LayerTrace(trainer, log)
    epochs = []
    min_epochs = MIN_EPOCHS_TRACED if args.trace else MIN_EPOCHS
    deadline = time.perf_counter() + args.train_seconds
    epoch = 1
    while math.isfinite(losses[-1]) and (
            time.perf_counter() < deadline or len(epochs) < min_epochs):
        traced = bool(args.trace) and epoch % 2 == 0
        flow_edges = log.counters["flow_edges"]
        with layer_trace.active() if traced else contextlib.nullcontext():
            train_epoch = log.wrap("epoch", trainer.train_epoch) if traced else trainer.train_epoch
            evaluate = log.wrap("eval", trainer.evaluate) if traced else trainer.evaluate
            m0 = log.mark()
            t = time.perf_counter()
            loss = _train(train_epoch, epoch)
            epoch_s = time.perf_counter() - t
            if not math.isfinite(loss):
                losses.append(loss)
                break
            m1 = log.mark()
            flow_edges = log.counters["flow_edges"] - flow_edges
            t = time.perf_counter()
            last_eval = evaluate()
            eval_s = time.perf_counter() - t
            m2 = log.mark()
        record = {"epoch": epoch, "loss": loss, "epoch_s": epoch_s, "eval_s": eval_s,
                  "traced": traced, "examples": trainer.last_epoch_stats["examples"]}
        if traced:
            record.update(_epoch_layers(log, m0, m1))
            record.update(_eval_layers(log, m1, m2))
            record["flow_edges"] = flow_edges
        epochs.append(record)
        losses.append(loss)
        epoch += 1

    profiled = {}
    if args.trace and math.isfinite(losses[-1]):
        # One more epoch under the autograd op profiler, for the backward
        # time of the two fused attention kernels (not part of the
        # coverage or overhead figures above).
        from repro.obs.profiler import profile

        with profile() as prof:
            losses.append(_train(trainer.train_epoch, epoch))
        for row in prof.report().to_json()["ops"]:
            if row["op"] in ("relation_scores", "collab_scores"):
                profiled[f"backward.{row['op']}_ms"] = 1e3 * row["bwd_s"]
    if args.trace:
        log.write(args.spans)
    with open(args.out, "w") as handle:
        json.dump({
            "epochs": epochs,
            "losses": [float(x) for x in losses],
            "recall": float(last_eval.get(f"recall@{TOP_K}", 0.0)),
            "n_items": model.dataset.n_items,
            "profiled": profiled,
            # Linux reports ru_maxrss in KiB.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, handle)


def expect(args) -> None:
    import_s = _import_repro()
    from repro.serve import load_checkpoint

    model = load_checkpoint(args.checkpoint)
    payload = offline_expectations(
        model, top_degree_users(model.dataset, args.index_users), args.seed)
    payload["import_s"] = import_s
    with open(args.out, "w") as handle:
        json.dump(payload, handle)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run", "expect"])
    parser.add_argument("--workload", choices=sorted(TRAIN_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--train-seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--checkpoint")
    parser.add_argument("--index-users", type=int)
    args = parser.parse_args()
    if args.mode == "setup":
        set_up(args.workload, args.seed)
    elif args.mode == "run":
        run(args)
    else:
        expect(args)


if __name__ == "__main__":
    main()
