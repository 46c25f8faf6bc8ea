"""Per-layer spans around the public entry points of CG-KGR's layers.

:class:`LayerTrace` wraps, for the duration of :meth:`LayerTrace.active`,
the callables a training epoch goes through — sampler, collaborative
attention, each knowledge-attention hop, aggregators, encoder, embedding
lookups, the prediction head, the loss, ``Tensor.backward`` and the
optimizer — and records one span per call in memory.  Nothing under
``src/`` changes: the wrappers are attribute patches on the live objects
(and on ``Tensor.backward`` / the trainer module's negative sampler),
removed when the block exits.

A span's *self time* is its duration minus the time its child spans
cover; per-layer figures are sums of self time, so they add up to the
epoch wall time minus the unattributed trainer glue.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List

_now = time.perf_counter


class SpanLog:
    """Spans kept in memory: ``[name, start, end, parent, child_time]``."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def wrap(self, name: Callable[[], str] | str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        name_of = name if callable(name) else (lambda: name)

        def wrapped(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name_of(), _now(), 0.0, parent, 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                record = spans[idx]
                record[2] = end
                if parent >= 0:
                    spans[parent][4] += end - record[1]

        return wrapped

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, since: int, until: int) -> Dict[str, float]:
        """Seconds of self time per span name over ``spans[since:until]``."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, child in self.spans[since:until]:
            out[name] += (end - start) - child
        return dict(out)

    def inclusive_times(self, since: int, until: int) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans[since:until]:
            out[name] += end - start
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for idx, (name, start, end, parent, child) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": idx, "name": name, "parent": parent,
                    "start": start, "dur": end - start, "self": end - start - child,
                }) + "\n")


class LayerTrace:
    """Install/remove the layer wrappers on one trainer's CG-KGR model."""

    def __init__(self, trainer, log: SpanLog):
        self.trainer = trainer
        self.model = trainer.model
        self.log = log
        self._depth = self.model.config.effective_depth
        self._collab_calls = 0
        self._kg_calls = 0

    # Call-order naming inside one score_pairs: collaborative attention
    # runs for the user side first, then the item side; knowledge hops
    # run from the deepest level L down to hop 1.
    def _collab_name(self) -> str:
        self._collab_calls += 1
        return "collab_attn.user.fwd" if self._collab_calls == 1 else "collab_attn.item.fwd"

    def _kg_name(self) -> str:
        hop = self._depth - self._kg_calls
        self._kg_calls += 1
        return f"kg_attn.hop{hop}.fwd"

    def _score_pairs_name(self) -> str:
        self._collab_calls = 0
        self._kg_calls = 0
        return "predict.fwd"

    def _count_flow(self, fn):
        counters = self.log.counters

        def counted(*args, **kwargs):
            flow = fn(*args, **kwargs)
            counters["flow_edges"] += sum(e.size for e in flow.entities[1:])
            return flow

        return counted

    @contextlib.contextmanager
    def active(self):
        import repro.training.trainer as trainer_module
        from repro.autograd.tensor import Tensor

        model, trainer, log = self.model, self.trainer, self.log
        patches = []  # (owner, attribute, had_own_attribute, original)

        def patch(owner, attr, name, fn=None):
            # Instance patches shadow the class method and are deleted on
            # exit; attributes the owner defines itself are restored.
            own = attr in vars(owner)
            patches.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, log.wrap(name, fn or getattr(owner, attr)))

        sampler = model.sampler
        patch(sampler, "resample", "sampler.resample")
        patch(trainer_module, "sample_training_negatives", "sampler.negatives")
        patch(sampler, "kg_node_flow", "sampler.flow", self._count_flow(sampler.kg_node_flow))
        patch(sampler, "user_neighborhood", "sampler.flow")
        patch(sampler, "item_neighborhood", "sampler.flow")
        patch(model.collab_attention, "forward", self._collab_name)
        patch(model.kg_attention, "forward", self._kg_name)
        for aggregator in (model.user_aggregator, model.item_aggregator, model.kg_aggregator):
            patch(aggregator, "forward", "aggregator.fwd")
        patch(model, "encoder", "encoder.fwd")
        patch(model.user_embedding, "forward", "embed.fwd")
        patch(model.entity_embedding, "forward", "embed.fwd")
        patch(model, "score_pairs", self._score_pairs_name)
        patch(model, "training_loss", "loss.fwd")
        patch(Tensor, "backward", "backward")
        optimizer = trainer.optimizer
        patch(optimizer, "zero_grad", "optimizer.zero_grad")
        patch(optimizer, "step", "optimizer.step")
        patch(optimizer, "flush", "optimizer.flush")
        patch(model, "score_all_items", "eval.score")
        try:
            yield self
        finally:
            for owner, attr, own, original in reversed(patches):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
