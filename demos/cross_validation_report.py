"""Compare all four architectures with k-fold cross-validation.

A miniature version of the full experiment: 60 synthetic sentences,
3 folds, a handful of epochs, all four variant/attention combinations.
Metrics are stage-conditional (span identification is only scored where
the frame was right, span typing only where the boundaries were right
too), and the chain column grounds predictions on the demo map.
"""

from framecmd.embeddings import random_embeddings
from framecmd.model import ModelConfig
from framecmd.pipeline import TrainConfig, cross_validate, report
from framecmd.synth import demo_map, generate_synthetic

corpus = generate_synthetic(seed=5, n=60)
tokens = [t for s in corpus for t in s.tokens]
maps = {"house1": demo_map()}

rows = []
for variant in ("2L", "3L"):
    for attention in (True, False):
        model_cfg = ModelConfig(variant=variant, attention=attention,
                                embedding_dim=25, hidden_size=12,
                                decoder_hidden=12, attention_size=6,
                                label_embedding_dim=6, dropout=0.1, seed=5)
        train_cfg = TrainConfig(epochs=15, batch_size=8, lr=2e-3,
                                patience=0, seed=5, k=3)
        # One random vector per corpus token, as `eval --cv` draws them
        # when given no --embeddings file.
        table = random_embeddings(tokens, model_cfg.embedding_dim,
                                  seed=train_cfg.seed)
        stage, chain = cross_validate(corpus, model_cfg, train_cfg, table,
                                      maps=maps)
        rows.append((model_cfg.name, stage, chain))
        print(f"finished {model_cfg.name}")

print()
print(report(rows))
print("AD = frame F1, AI = untyped span F1 given the frame,")
print("AC = typed span F1 given the boundaries, chain = fully grounded.")
