"""Golden-output gate: SHA-256 digests of the documents for a fixed corpus.

The digests pin the exact bytes the default pipeline delivers. A change that
is meant to keep the output (a refactor, a faster kernel) must leave them
alone; a deliberate output change re-pins them and says why in CHANGES.md.
"""
import hashlib

from lanespace.pipeline import PipelineConfig, gen_source, run_pipeline
from lanespace.regions import ExtractionConfig

# gen seeds 0-99 at 640x480, noise 0.01, default config.
DEFAULT_DIGEST = "f4ccd7a14129b96b3e781708c33637cd36172ddd700a15699650807d31da3b4c"
# gen seeds 0-3 at 640x480, noise 0.01, downsample_factor=1.
FULLRES_DIGEST = "3255e57e85c9f2b294651bd0b1011a6b6479d19e205a6bb10415991d80e9ebeb"


class HashSink:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.frames = 0

    def deliver(self, frame_id, document):
        self.sha.update(document + b"\n")
        self.frames += 1

    def close(self):
        pass


def corpus_digest(spec, cfg):
    sink = HashSink()
    run_pipeline(gen_source(spec, seed=0), sink, cfg)
    return sink.frames, sink.sha.hexdigest()


def test_default_config_documents_match_the_golden_digest():
    assert corpus_digest("100x640x480@0.01", PipelineConfig()) == (100, DEFAULT_DIGEST)


def test_full_resolution_documents_match_the_golden_digest():
    cfg = PipelineConfig(extraction=ExtractionConfig(downsample_factor=1))
    assert corpus_digest("4x640x480@0.01", cfg) == (4, FULLRES_DIGEST)
