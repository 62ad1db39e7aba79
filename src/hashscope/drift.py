"""Diachronic hashtag semantics: per-year embeddings, orthogonal alignment,
displacement scores, sharing entropy, and their correlations.

Vectors trained on different years live in arbitrary coordinate frames, so a
year is rotated onto the next with the closed-form orthogonal least-squares
alignment before distances are measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, top_k_hashtags, write_csv
from .embedding import EmbeddingTable, TrainConfig, cosine_distance, train

ORTHOGONALITY_TOL = 1e-8


@dataclass
class AlignmentMap:
    """Orthogonal d x d matrix rotating a source year onto a target year."""

    matrix: np.ndarray

    def orthogonality_residual(self) -> float:
        x = self.matrix
        return float(np.abs(x @ x.T - np.eye(len(x))).max())

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate column vectors (d x n) or a single vector."""
        return np.einsum("ij,j...->i...", self.matrix, vectors)


@dataclass
class DisplacementReport:
    years: list[int]
    hashtags: list[str]
    single: dict[str, dict[tuple[int, int], float]]
    overall: dict[str, float]
    entropy: dict[tuple[str, int], float]
    frequency: dict[tuple[str, int], int]
    entropy_correlation: float | None
    frequency_correlation: float | None


def procrustes_align(source: np.ndarray, target: np.ndarray) -> AlignmentMap:
    """Best orthogonal X mapping source columns onto target columns.

    Both matrices are d x n with column i of each holding the same
    vocabulary item.  X = U V^T from the SVD of target @ source^T, the
    minimizer of ||X source - target||_F over orthogonal X.

    The products go through ``np.einsum`` (no BLAS call), so the result does
    not depend on the BLAS thread count.
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.shape != target.shape:
        raise ValueError(f"shape mismatch: source {source.shape}, target {target.shape}")
    if source.ndim != 2:
        raise ValueError("expected 2-D matrices")
    u, _, vt = np.linalg.svd(np.einsum("in,jn->ij", target, source))
    x = np.einsum("ik,kj->ij", u, vt)
    result = AlignmentMap(matrix=x)
    residual = result.orthogonality_residual()
    if residual > ORTHOGONALITY_TOL:
        raise ArithmeticError(f"alignment not orthogonal: residual {residual:.3e}")
    return result


def overall_displacement(per_pair: list[float]) -> float:
    """Mean of a hashtag's consecutive-year displacements."""
    if not per_pair:
        raise ValueError("hashtag has no consecutive-year displacement values")
    return float(np.mean(per_pair))


def entropy_from_counts(counts) -> float:
    values = np.array([c for c in counts if c > 0], dtype=np.float64)
    if values.sum() <= 0:
        raise ValueError("entropy undefined without shares")
    p = values / values.sum()
    return float(-(p * np.log(p)).sum())


def hashtag_entropy(corpus: Corpus, hashtag: str, year: int) -> float:
    """Entropy of the hashtag's share distribution across users in a year.

    p(u) is the fraction of the hashtag's shares that user u contributed;
    natural log.  0 means a single sharer; ln(n) means n users sharing
    uniformly.
    """
    tags, offsets, counts = corpus.sharers_in_year(year)
    for i, tag in enumerate(tags.tolist()):
        if corpus.tag_names[tag] == hashtag:
            return entropy_from_counts(counts[offsets[i]:offsets[i + 1]])
    raise ValueError(f"hashtag {hashtag!r} unshared in {year}")


def pearson(x, y) -> float:
    """Pearson product-moment correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D and the same length")
    if len(x) < 3:
        raise ValueError(f"need at least 3 points, got {len(x)}")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = (xc ** 2).sum()
    vy = (yc ** 2).sum()
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance input")
    return float((xc * yc).sum() / math.sqrt(vx * vy))


def train_yearly(corpus: Corpus, years: list[int],
                 config: TrainConfig) -> dict[int, EmbeddingTable]:
    """One embedding table per year, all trained with the same config.

    The same seed is reused for every year: together with the per-token
    hash initialization this makes identical year slices produce identical
    tables, so the identical-data control shows zero displacement.  Each
    post with at least two hashtags is one sentence, its hashtags sorted for
    determinism.
    """
    tables = {}
    for year in years:
        sentences = corpus.year_sentences(year)
        if not sentences:
            raise ValueError(f"no multi-hashtag posts in {year}")
        tables[year] = train(sentences, config)
    return tables


def drift_analysis(
    corpus: Corpus,
    years: list[int],
    top_k: int = 1000,
    config: TrainConfig | None = None,
) -> DisplacementReport:
    """Full displacement pipeline over consecutive year pairs.

    Trains per-year embeddings, aligns year t onto t+1 over their shared
    vocabulary, and reports per-hashtag single and overall displacements for
    the corpus-wide top-k hashtags, per-year sharing entropies, and the
    displacement-entropy and displacement-frequency correlations.  Each
    (hashtag, year pair) contributes one correlation point, with entropy and
    frequency read at the pair's earlier year.
    """
    years = sorted(years)
    if len(years) < 2:
        raise ValueError("need at least 2 years")
    if config is None:
        config = TrainConfig()
    tables = train_yearly(corpus, years, config)

    shares = corpus.share_counts()
    focus = top_k_hashtags(corpus, top_k)
    tag_id = {tag: i for i, tag in enumerate(corpus.tag_names)}
    in_focus = np.zeros(len(shares), dtype=bool)
    in_focus[[tag_id[t] for t in focus]] = True

    single: dict[str, dict[tuple[int, int], float]] = {t: {} for t in focus}
    entropy: dict[tuple[str, int], float] = {}
    frequency: dict[tuple[str, int], int] = {}

    for year in years:
        tags, offsets, counts = corpus.sharers_in_year(year)
        for i in np.flatnonzero(in_focus[tags]).tolist():
            key = (corpus.tag_names[tags[i]], year)
            per_user = counts[offsets[i]:offsets[i + 1]]
            entropy[key] = entropy_from_counts(per_user)
            frequency[key] = int(per_user.sum())

    for y_a, y_b in zip(years, years[1:]):
        tab_a, tab_b = tables[y_a], tables[y_b]
        # hashtags in both years, most frequent first, ties lexical
        shared = sorted(set(tab_a.vocab.index) & set(tab_b.vocab.index),
                        key=lambda t: (-shares[tag_id[t]], t))
        if not shared:
            raise ValueError(f"no shared vocabulary between {y_a} and {y_b}")
        src = np.stack([tab_a.vector(t) for t in shared], axis=1).astype(np.float64)
        dst = np.stack([tab_b.vector(t) for t in shared], axis=1).astype(np.float64)
        alignment = procrustes_align(src, dst)
        aligned = alignment.apply(src)
        for col, tag in enumerate(shared):
            if in_focus[tag_id[tag]]:
                single[tag][(y_a, y_b)] = cosine_distance(aligned[:, col], dst[:, col])

    overall = {
        tag: overall_displacement(list(pairs.values()))
        for tag, pairs in single.items()
        if pairs
    }

    ent_x, freq_x, disp_y = [], [], []
    for tag, pairs in single.items():
        for (y_a, _), disp in pairs.items():
            if (tag, y_a) in entropy:  # entropy and frequency share their keys
                ent_x.append(entropy[(tag, y_a)])
                freq_x.append(frequency[(tag, y_a)])
                disp_y.append(disp)
    ent_corr = pearson(ent_x, disp_y) if len(ent_x) >= 3 and len(set(ent_x)) > 1 else None
    freq_corr = pearson(freq_x, disp_y) if len(freq_x) >= 3 and len(set(freq_x)) > 1 else None

    return DisplacementReport(
        years=years,
        hashtags=[t for t in focus if t in overall],
        single=single,
        overall=overall,
        entropy=entropy,
        frequency=frequency,
        entropy_correlation=ent_corr,
        frequency_correlation=freq_corr,
    )


def export_csv(report: DisplacementReport, path: str | Path) -> None:
    """Per-hashtag overall displacement with per-pair detail columns."""
    pairs = list(zip(report.years, report.years[1:]))
    header = ["hashtag", "overall_displacement"]
    for y_a, y_b in pairs:
        header += [f"disp_{y_a}_{y_b}", f"entropy_{y_a}", f"shares_{y_a}"]
    rows = []
    for tag in sorted(report.overall, key=lambda t: (-report.overall[t], t)):
        row = [tag, repr(report.overall[tag])]
        for y_a, y_b in pairs:
            disp = report.single.get(tag, {}).get((y_a, y_b))
            ent = report.entropy.get((tag, y_a))
            freq = report.frequency.get((tag, y_a))
            row += [
                repr(disp) if disp is not None else "",
                repr(ent) if ent is not None else "",
                freq if freq is not None else "",
            ]
        rows.append(row)
    write_csv(path, header, rows)


def export_scatter(report: DisplacementReport, path: str | Path) -> None:
    """(entropy, displacement) scatter points for external plotting."""
    write_csv(path, ["hashtag", "year_a", "year_b", "entropy", "displacement"],
              ([tag, y_a, y_b, repr(report.entropy[tag, y_a]), repr(disp)]
               for tag in sorted(report.single)
               for (y_a, y_b), disp in sorted(report.single[tag].items())
               if (tag, y_a) in report.entropy))
