"""Generate a synthetic command corpus and poke at its structure.

The generator deals frames round-robin from a small template grammar, so
even tiny corpora cover every frame. Each sentence carries gold element
spans plus gold groundings against the built-in demo map.
"""

from framecmd.corpus import encode_iob, label_vocab, make_folds
from framecmd.synth import demo_map, generate_synthetic

corpus = generate_synthetic(seed=7, n=30)
print(f"generated {len(corpus)} sentences\n")

print("first three records:")
for s in corpus[:3]:
    spans = ", ".join(f"{t}={' '.join(s.tokens[a:b + 1])!r}"
                      for t, (a, b) in s.frame.elements)
    print(f"  [{s.id}] {' '.join(s.tokens)}")
    print(f"      frame={s.frame.frame_type}  {spans}")

vocab = label_vocab(corpus)
print(f"\nframes ({len(vocab.frames)}): {', '.join(vocab.frames)}")
print(f"element types: {', '.join(vocab.element_types)}")
print(f"typed IOB alphabet: {vocab.typed_iob}")

# the two label views the parsers train on
s = corpus[0]
print(f"\nIOB encodings for {s.id}:")
print(f"  tokens: {list(s.tokens)}")
print(f"  plain:  {list(encode_iob(s, typed=False))}")
print(f"  typed:  {list(encode_iob(s, typed=True))}")

folds = make_folds(corpus, k=5, seed=0)
sizes = [sum(1 for f in folds.assignment.values() if f == i)
         for i in range(5)]
print(f"\n5-fold split sizes (stratified by frame): {sizes}")

smap = demo_map()
print(f"\ndemo map '{smap.id}' has {len(smap.entities)} entities, e.g.")
for e in smap.entities[:4]:
    print(f"  {e.id}: {e.type}, refs {sorted(e.lexical_refs)}")
