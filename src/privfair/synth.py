"""Synthetic benchmark surrogates and canonical-format CI fixtures.

The surrogates mirror the marginal structure of the real benchmark files
(group shares, label rates, proxy correlations) so that mechanism-comparison
experiments behave at the documented scale without shipping the real data.
Group skew enters only through feature distributions: the label model never
reads the sensitive columns directly, the trees discriminate via proxies.
"""

from __future__ import annotations

import numpy as np

from .data import CATEGORICAL, NUMERIC, Dataset, SensitiveSet

_RACES = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")
_RACE_P = (0.855, 0.096, 0.031, 0.010, 0.008)
_WORKCLASSES = ("Private", "Self-emp-not-inc", "Local-gov", "State-gov", "Federal-gov")
_WORKCLASS_P = (0.75, 0.09, 0.07, 0.05, 0.04)
_COUNTRIES = ("United-States", "Mexico", "Philippines", "Germany", "Canada")
_COUNTRY_P = (0.91, 0.04, 0.02, 0.015, 0.015)


def make_adult_surrogate(n: int = 30162, seed: int = 0) -> tuple[Dataset, SensitiveSet]:
    """Adult-like table: ~86% privileged ethnicity, ~67% male, ~24% favorable.

    Education, hours and marital status carry the group skew; the resulting
    tree-level parity sits near the real file's (ethnicity ~0.6, sex ~0.3).
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xAD])))
    male = rng.random(n) < 0.67
    race = rng.choice(len(_RACES), size=n, p=_RACE_P)
    white = race == 0

    age = np.clip(np.round(rng.normal(38.6, 13.2, n)), 17, 90)
    edu = np.clip(np.round(rng.normal(9.3 + 1.6 * male + 1.3 * white, 2.5, n)), 1, 16)
    hours = np.clip(np.round(rng.normal(38.0 + 6.0 * male + 1.0 * white, 11.0, n)), 1, 99)
    has_gain = rng.random(n) < (0.055 + 0.035 * male + 0.02 * white)
    capital_gain = np.where(has_gain, np.round(rng.lognormal(8.3, 1.0, n)), 0.0)
    capital_loss = np.where(rng.random(n) < 0.047, np.round(rng.normal(1870, 350, n)), 0.0)

    married = rng.random(n) < np.clip(0.22 + 0.50 * male + 0.08 * white, 0, 1)
    marital = np.where(married, "Married-civ-spouse", "Never-married").astype(str)
    relationship = np.where(
        married & male, "Husband", np.where(married, "Wife", "Not-in-family")
    ).astype(str)
    workclass = np.array([_WORKCLASSES[i] for i in rng.choice(len(_WORKCLASSES), n, p=_WORKCLASS_P)])
    occ_shift = np.clip((edu - 9) / 14.0, 0, 0.35)
    occupation = np.empty(n, dtype="<U20")
    high = rng.random(n) < (0.25 + occ_shift)
    occupation[high] = rng.choice(["Prof-specialty", "Exec-managerial"], size=int(high.sum()))
    occupation[~high] = rng.choice(
        ["Craft-repair", "Adm-clerical", "Sales", "Other-service", "Machine-op-inspct"],
        size=int((~high).sum()),
    )
    education = np.where(edu >= 13, "Bachelors", np.where(edu >= 9, "HS-grad", "Some-school")).astype(str)
    country = np.array([_COUNTRIES[i] for i in rng.choice(len(_COUNTRIES), n, p=_COUNTRY_P)])

    score = (
        0.33 * (edu - 9.5)
        + 0.045 * (hours - 40)
        + 1.9 * (capital_gain > 0)
        + 1.45 * married
        + 0.022 * (age - 38)
        + rng.normal(0, 1.05, n)
    )
    labels = (score > 2.9).astype(np.int64)

    ids = np.arange(n, dtype=np.int64)
    features = {
        "workclass": workclass.astype(str),
        "education": education,
        "education-num": edu.astype(float),
        "marital-status": marital,
        "occupation": occupation.astype(str),
        "relationship": relationship,
        "capital-gain": capital_gain.astype(float),
        "capital-loss": capital_loss.astype(float),
        "hours-per-week": hours.astype(float),
    }
    kinds = {
        "workclass": CATEGORICAL, "education": CATEGORICAL, "education-num": NUMERIC,
        "marital-status": CATEGORICAL, "occupation": CATEGORICAL, "relationship": CATEGORICAL,
        "capital-gain": NUMERIC, "capital-loss": NUMERIC, "hours-per-week": NUMERIC,
    }
    ds = Dataset(ids, tuple(features), kinds, features, labels)
    sens = SensitiveSet(
        ids.copy(),
        {
            "race": np.array([_RACES[i] for i in race], dtype=str),
            "sex": np.where(male, "Male", "Female").astype(str),
            "age": age.astype(float),
            "native-country": country.astype(str),
        },
    )
    return ds, sens


_COMPAS_RACES = ("African-American", "Caucasian", "Hispanic", "Other")
_COMPAS_RACE_P = (0.51, 0.34, 0.08, 0.07)


def make_compas_surrogate(n: int = 6172, seed: int = 0) -> tuple[Dataset, SensitiveSet]:
    """COMPAS-like table; favorable label (1) is no recidivism."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xC0])))
    male = rng.random(n) < 0.81
    race = rng.choice(len(_COMPAS_RACES), size=n, p=_COMPAS_RACE_P)
    caucasian = race == 1

    age = np.clip(np.round(rng.exponential(9.5, n) + 20 + 2.0 * caucasian), 18, 80)
    priors = np.clip(np.round(rng.exponential(2.4 + 1.1 * male - 0.9 * caucasian, n)), 0, 37)
    decile = np.clip(np.round(1 + 9 * rng.beta(1.25, 1.9 + 1.1 * caucasian, n)), 1, 10)
    gap = np.round(rng.normal(0, 7, n))
    jail_in = np.round(rng.uniform(2010, 2014, n))
    jail_out = jail_in + (rng.random(n) < 0.23)
    degree = np.where(rng.random(n) < 0.64, "F", "M").astype(str)
    score_text = np.where(decile <= 4, "Low", np.where(decile <= 7, "Medium", "High")).astype(str)

    risk = (
        0.33 * (decile - 5)
        + 0.16 * priors
        - 0.045 * (age - 30)
        + 0.35 * male
        + 0.45 * (degree == "F")
        + rng.normal(0, 1.15, n)
    )
    labels = (risk < 0.95).astype(np.int64)  # favorable = predicted not to reoffend

    ids = np.arange(n, dtype=np.int64)
    features = {
        "c_charge_degree": degree,
        "score_text": score_text,
        "priors_count": priors.astype(float),
        "days_b_screening_arrest": gap.astype(float),
        "decile_score": decile.astype(float),
        "c_jail_in": jail_in.astype(float),
        "c_jail_out": jail_out.astype(float),
    }
    kinds = {
        "c_charge_degree": CATEGORICAL, "score_text": CATEGORICAL, "priors_count": NUMERIC,
        "days_b_screening_arrest": NUMERIC, "decile_score": NUMERIC,
        "c_jail_in": NUMERIC, "c_jail_out": NUMERIC,
    }
    ds = Dataset(ids, tuple(features), kinds, features, labels)
    sens = SensitiveSet(
        ids.copy(),
        {
            "race": np.array([_COMPAS_RACES[i] for i in race], dtype=str),
            "sex": np.where(male, "Male", "Female").astype(str),
            "age": age.astype(float),
        },
    )
    return ds, sens


# ---------------------------------------------------------------------------
# Fixture writers: canonical file formats at CI scale.

def write_adult_fixtures(train_path, test_path, n_train: int = 200, n_test: int = 100,
                         seed: int = 7) -> None:
    """Write Adult-format files, including the native quirks the loader must
    tolerate: comma-space separators, '?' rows, the test header line and
    trailing periods on test labels."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xF1])))

    def rows(n, test):
        ds, sens = make_adult_surrogate(n, seed=seed + (1 if test else 0))
        out = []
        for i in range(n):
            label = ">50K" if ds.labels[i] else "<=50K"
            if test:
                label += "."
            fields = [
                str(int(sens.raw["age"][i])),
                ds.columns["workclass"][i],
                str(int(rng.integers(10000, 1000000))),  # fnlwgt, removed by the loader
                ds.columns["education"][i],
                str(int(ds.columns["education-num"][i])),
                ds.columns["marital-status"][i],
                ds.columns["occupation"][i],
                ds.columns["relationship"][i],
                sens.raw["race"][i],
                sens.raw["sex"][i],
                str(int(ds.columns["capital-gain"][i])),
                str(int(ds.columns["capital-loss"][i])),
                str(int(ds.columns["hours-per-week"][i])),
                sens.raw["native-country"][i],
                label,
            ]
            if rng.random() < 0.05:
                fields[1] = "?"  # missing workclass; the row must be dropped
            out.append(", ".join(fields))
        return out

    with open(train_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows(n_train, test=False)) + "\n")
    with open(test_path, "w", encoding="utf-8") as fh:
        fh.write("|1x3 Cross validator\n")
        fh.write("\n".join(rows(n_test, test=True)) + "\n")


def write_compas_fixture(path, n: int = 220, seed: int = 7) -> None:
    """Write a COMPAS-format CSV that exercises every loader filter."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xF2])))
    ds, sens = make_compas_surrogate(n, seed=seed)
    header = (
        "id,age,c_charge_degree,race,age_cat,score_text,sex,priors_count,"
        "days_b_screening_arrest,decile_score,is_recid,two_year_recid,c_jail_in,c_jail_out"
    )
    lines = [header]
    for i in range(n):
        age = int(sens.raw["age"][i])
        gap = int(ds.columns["days_b_screening_arrest"][i])
        is_recid = 1 - int(ds.labels[i])
        degree = ds.columns["c_charge_degree"][i]
        score = ds.columns["score_text"][i]
        roll = rng.random()
        if roll < 0.05:
            gap = int(rng.integers(31, 300)) * (1 if rng.random() < 0.5 else -1)  # filtered out
        elif roll < 0.08:
            is_recid = -1  # filtered out
        elif roll < 0.10:
            degree = "O"  # filtered out
        elif roll < 0.12:
            score = "N/A"  # filtered out
        jail_in = f"{int(ds.columns['c_jail_in'][i])}-01-{int(rng.integers(1, 28)):02d} 06:03:42"
        jail_out = f"{int(ds.columns['c_jail_out'][i])}-02-{int(rng.integers(1, 28)):02d} 18:45:00"
        priors = "" if rng.random() < 0.03 else str(int(ds.columns["priors_count"][i]))
        age_cat = "Less than 25" if age < 25 else ("25 - 45" if age <= 45 else "Greater than 45")
        lines.append(
            f"{i},{age},{degree},{sens.raw['race'][i]},{age_cat},{score},{sens.raw['sex'][i]},"
            f"{priors},{gap},{int(ds.columns['decile_score'][i])},{is_recid},"
            f"{1 - int(ds.labels[i])},{jail_in},{jail_out}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_GERMAN_CATS = {
    "status": ("A11", "A12", "A13", "A14"),
    "credit_history": ("A30", "A31", "A32", "A33", "A34"),
    "purpose": ("A40", "A41", "A42", "A43", "A46"),
    "savings": ("A61", "A62", "A63", "A64", "A65"),
    "employment_since": ("A71", "A72", "A73", "A74", "A75"),
    "other_debtors": ("A101", "A102", "A103"),
    "property": ("A121", "A122", "A123", "A124"),
    "other_installment_plans": ("A141", "A142", "A143"),
    "housing": ("A151", "A152", "A153"),
    "job": ("A171", "A172", "A173", "A174"),
    "telephone": ("A191", "A192"),
}


def write_german_fixture(path, n: int = 200, seed: int = 7) -> None:
    """Write a German-credit-format file (space separated, coded attributes)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xF3])))
    lines = []
    for i in range(n):
        male = rng.random() < 0.69
        code = rng.choice(["A91", "A93", "A94"]) if male else rng.choice(["A92", "A95"])
        duration = int(np.clip(rng.normal(21, 12), 4, 72))
        amount = int(np.clip(rng.lognormal(7.9, 0.8), 250, 18000))
        status = _GERMAN_CATS["status"][int(rng.integers(0, 4))]
        good = (
            0.9 * (status in ("A13", "A14"))
            - 0.03 * (duration - 20)
            - 0.00004 * (amount - 3000)
            + 0.3 * male
            + rng.normal(0, 1)
        ) > -0.55
        fields = [
            status,
            str(duration),
            str(rng.choice(_GERMAN_CATS["credit_history"])),
            str(rng.choice(_GERMAN_CATS["purpose"])),
            str(amount),
            str(rng.choice(_GERMAN_CATS["savings"])),
            str(rng.choice(_GERMAN_CATS["employment_since"])),
            str(int(rng.integers(1, 5))),
            code,
            str(rng.choice(_GERMAN_CATS["other_debtors"])),
            str(int(rng.integers(1, 5))),
            str(rng.choice(_GERMAN_CATS["property"])),
            str(int(np.clip(rng.normal(35, 11), 19, 75))),
            str(rng.choice(_GERMAN_CATS["other_installment_plans"])),
            str(rng.choice(_GERMAN_CATS["housing"])),
            str(int(rng.integers(1, 4))),
            str(rng.choice(_GERMAN_CATS["job"])),
            str(int(rng.integers(1, 3))),
            str(rng.choice(_GERMAN_CATS["telephone"])),
            "A201" if rng.random() < 0.12 else "A202",
            "1" if good else "2",
        ]
        lines.append(" ".join(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
