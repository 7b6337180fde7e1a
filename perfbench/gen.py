"""Seeded synthetic benchmark tables for the errstat CLI benchmark.

A table has N systems and K methods.  Every method's error on system i
shares a common component c_i (methods tend to fail on the same hard
systems), so the method columns are positively correlated, as in real
benchmark sets.  Every third method draws its own noise from a
heavy-tailed, right-skewed g-and-h distribution, which makes the Q95 of
its absolute errors differ markedly from a normal-theory guess.

Two kinds of exact ties are planted, each on a few percent of the rows:

* a method predicts the reference exactly (error 0), giving repeated
  values inside every column, which exercises the midrank tie path of
  the Spearman correlation;
* the second method of each consecutive pair copies the first method's
  prediction, giving zero paired differences (SIP ties, zero bootstrap
  differences).

Only numpy is used, so the benchmark's own inputs never depend on the
package under test.
"""

import numpy as np

TIE_FRACTION = 0.03
EXACT_FRACTION = 0.02


def _gh(z, g, h):
    """g-and-h transform of standard-normal draws (g > 0)."""
    return np.expm1(g * z) / g * np.exp(0.5 * h * z * z)


def make_table(n, k, seed):
    """Return (system_ids, reference, predictions) with predictions of shape (n, k)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, k]))
    reference = rng.normal(0.0, 20.0, size=n)
    common = rng.standard_normal(n)
    predictions = np.empty((n, k))
    for j in range(k):
        z = rng.standard_normal(n)
        noise = _gh(z, 0.2, 0.2) if j % 3 == 2 else z
        bias = 0.1 * (j - k / 2) / k
        errors = bias + (0.4 + 0.05 * j) * common + (0.5 + 0.02 * j) * noise
        predictions[:, j] = reference - errors
        exact = rng.random(n) < EXACT_FRACTION
        predictions[exact, j] = reference[exact]
    for j in range(0, k - 1, 2):
        tied = rng.random(n) < TIE_FRACTION
        predictions[tied, j + 1] = predictions[tied, j]
    system_ids = [f"S{i:05d}" for i in range(n)]
    return system_ids, reference, predictions


def method_names(k):
    return [f"M{j + 1:02d}" for j in range(k)]


def write_table(path, system_ids, reference, predictions):
    """Write the table as errstat CSV; repr() round-trips every float exactly."""
    names = method_names(predictions.shape[1])
    lines = ["System,Ref," + ",".join(names)]
    for sid, ref, row in zip(system_ids, reference.tolist(), predictions.tolist()):
        lines.append(f"{sid},{ref!r}," + ",".join(repr(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def errors(reference, predictions):
    """Signed errors reference - prediction, the same float arithmetic errstat uses."""
    return reference[:, None] - predictions
