"""The five text augmentation strategies with offline mock providers.

A live chat-completion endpoint can be plugged in through ProviderConfig;
here the deterministic mocks show the orchestration, the response cache,
and the keep-entity rejection path without any network access.
"""
import tempfile

from eventaug import Corpus, Message, check_entity_preservation, render_prompt
from eventaug.textaug import (DEFAULT_STRATEGIES, DropEntityProvider,
                              EchoProvider, ShuffleProvider, augment_corpus)

corpus = Corpus(messages=tuple(
    Message(id=f"m{i}", text=f"wildfire near Lake Tahoe, day {i}",
            user_id="u1", timestamp=1_650_000_000 + i,
            entities=("Lake Tahoe",), label=0)
    for i in range(8)))

print("strategies:", ", ".join(DEFAULT_STRATEGIES))
print()
print("prompt for keep-entity on the first message:")
print(render_prompt("keep-entity", corpus.messages[0]))
print()

with tempfile.TemporaryDirectory(prefix="eventaug-cache-") as cache_dir:
    result = augment_corpus(corpus, DEFAULT_STRATEGIES, EchoProvider(),
                            cache_dir=cache_dir)
    print(f"generated={result.generated} skipped={result.skipped} "
          f"provider_calls={result.provider_calls}")
    variant = next(m for m in result.corpus.messages if m.origin is not None)
    print(f"variant {variant.id} keeps source metadata: "
          f"user={variant.user_id} label={variant.label} "
          f"origin=({variant.origin.strategy}, {variant.origin.source_id})")

    # identical rerun: every response comes from the cache
    rerun = augment_corpus(corpus, DEFAULT_STRATEGIES, EchoProvider(),
                           cache_dir=cache_dir)
    print(f"rerun cache_hits={rerun.cache_hits} provider_calls={rerun.provider_calls}")

# the word-rotating mock produces genuinely different text
rotated = augment_corpus(corpus, ["paraphrase"], ShuffleProvider())
sample = next(m for m in rotated.corpus.messages if m.origin is not None)
print(f"\nshuffle mock rewrite: {sample.text!r}")
print(f"entities preserved: {check_entity_preservation(corpus.messages[0], sample.text)}")

# a provider that damages a required entity gets its output rejected
broken = augment_corpus(corpus, ["keep-entity"], DropEntityProvider("Lake Tahoe"))
print(f"entity-dropping provider: generated={broken.generated} "
      f"skipped={broken.skipped}")
