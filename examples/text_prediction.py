"""Volunteer-style RNN text prediction (the JSDoop workload, §II-A).

Morell et al.'s JSDoop — cited by the paper as prior VC-for-DL work —
trained an RNN for text prediction in browsers.  This example runs the
equivalent workload on our substrate: a character-level GRU next-character
model trained (a) serially and (b) by VC-ASGD-style merging of clients
that each own a slice of the corpus.

Run:  python examples/text_prediction.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import render_table
from repro.core.vcasgd import vcasgd_merge
from repro.nn import Adam, Dense, Tensor, cross_entropy
from repro.nn.rnn import RNN, Embedding, GRUCell
from repro.nn.serialization import StateLayout

CORPUS = (
    "the quick brown fox jumps over the lazy dog while the lazy dog dreams "
    "of jumping over the quick brown fox and the fox keeps running through "
    "the quiet green field under the warm evening sun as the dog watches "
) * 6
WINDOW = 12
HIDDEN = 24
EMBED = 12


class CharModel:
    """Embedding → GRU → softmax head, bundled as one trainable unit."""

    def __init__(self, vocab: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.emb = Embedding(vocab, EMBED, rng)
        self.cell = GRUCell(EMBED, HIDDEN, rng)
        self.rnn = RNN(self.cell)
        self.head = Dense(HIDDEN, vocab, rng)
        self.modules = (self.emb, self.cell, self.head)

    def parameters(self):
        for module in self.modules:
            yield from module.parameters()

    def state_dict(self):
        state = {}
        for i, module in enumerate(self.modules):
            for key, value in module.state_dict().items():
                state[f"{i}:{key}"] = value
        return state

    def load_state_dict(self, state):
        for i, module in enumerate(self.modules):
            module.load_state_dict(
                {k.split(":", 1)[1]: v for k, v in state.items() if k.startswith(f"{i}:")}
            )

    def logits(self, x: np.ndarray) -> Tensor:
        _, h = self.rnn(self.emb(x))
        return self.head(h)

    def zero_grad(self):
        for module in self.modules:
            module.zero_grad()


def encode(corpus: str) -> tuple[np.ndarray, dict[str, int]]:
    chars = sorted(set(corpus))
    table = {c: i for i, c in enumerate(chars)}
    return np.array([table[c] for c in corpus]), table


def make_pairs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.stack([ids[i : i + WINDOW] for i in range(len(ids) - WINDOW)])
    y = ids[WINDOW:]
    return x, y


def train(model: CharModel, x: np.ndarray, y: np.ndarray, steps: int, seed: int) -> None:
    opt = Adam(model.parameters(), lr=0.01)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        idx = rng.choice(len(x), size=min(64, len(x)), replace=False)
        model.zero_grad()
        loss = cross_entropy(model.logits(x[idx]), y[idx])
        loss.backward()
        opt.step()


def accuracy(model: CharModel, x: np.ndarray, y: np.ndarray) -> float:
    return float((model.logits(x).data.argmax(1) == y).mean())


def main() -> None:
    ids, table = encode(CORPUS)
    vocab = len(table)
    x, y = make_pairs(ids)
    cut = int(len(x) * 0.85)
    x_tr, y_tr, x_va, y_va = x[:cut], y[:cut], x[cut:], y[cut:]
    print(f"corpus: {len(ids)} chars, vocab {vocab}, {len(x_tr)} train windows")

    serial = CharModel(vocab, seed=1)
    train(serial, x_tr, y_tr, steps=120, seed=2)

    # VC-ASGD: 4 clients, each owning a contiguous corpus slice.
    template_model = CharModel(vocab, seed=1)
    template = template_model.state_dict()
    layout = StateLayout.for_state(template)
    server = layout.pack(template)
    shards = np.array_split(np.arange(len(x_tr)), 4)
    for _ in range(4):  # merge rounds
        for ci, idx in enumerate(shards):
            worker = CharModel(vocab, seed=1)
            worker.load_state_dict(layout.views(server))
            train(worker, x_tr[idx], y_tr[idx], steps=30, seed=10 + ci)
            server = vcasgd_merge(server, layout.pack(worker.state_dict()), 0.6)
    merged = CharModel(vocab, seed=1)
    merged.load_state_dict(layout.views(server))

    print(
        render_table(
            ["model", "val next-char accuracy"],
            [
                ["serial GRU", round(accuracy(serial, x_va, y_va), 3)],
                ["VC-ASGD (4 clients)", round(accuracy(merged, x_va, y_va), 3)],
                ["chance", round(1.0 / vocab, 3)],
            ],
            title="\nCharacter-level text prediction (JSDoop-style workload)",
        )
    )


if __name__ == "__main__":
    main()
