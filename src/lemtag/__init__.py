"""Contextual morphological analysis: joint lemmatization and tagging
with a character-level attention encoder-decoder.
"""

from .conllu import (Analysis, Corpus, CorpusFormatError, CorpusStats,
                     MorphoTag, Sentence, Token, corpus_stats, lexical_forms,
                     normalize_tag, parse_corpus, read_corpus_file,
                     tag_to_string, write_corpus)
from .decode import (DecodeConfig, beam_decode, build_ballots,
                     greedy_decode, majority_vote, parse_analysis_units,
                     predict_corpus, predict_sentence, score_sequence)
from .metrics import (EvalAlignmentError, EvalReport, SplitScores, TagScore,
                      evaluate, levenshtein, tag_f1)
from .model import (Batch, CheckpointError, Model, ModelConfig, attend,
                    backward, decode_step, encode_source, forward_loss,
                    init_model, load_model, make_batch, save_model,
                    sgd_update)
from .snippets import (SnippetConfig, SnippetExample, Vocab, build_vocab,
                       encode, examples_for_corpus, format_example)
from .training import (CheckpointRecord, TrainConfig, TrainReport,
                       TrainingDivergedError, lr_schedule, make_batches,
                       train)

__version__ = "0.1.0"
