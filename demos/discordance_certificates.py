"""Concordance verdicts, sign certificates, and concordant containers.

Every full model is discordant; the interesting structure appears in the
subnetworks the models share.  This script prints a verified discordance
certificate for one model, then grows a maximal concordant container
around the reactions two models have in common.  Runs in about 0.1 s
on a 2-vCPU Xeon VM.

    python3 demos/discordance_certificates.py
"""

from crnkit import fixtures
from crnkit.concord import check_concordance, m3cr, verify_witness
from crnkit.core import Network, common_reactions, serialize_network


def show_witness(net, witness):
    alpha = {r.label: a for r, a in zip(net.reactions, witness.alpha) if a}
    sigma = {s: v for s, v in zip(net.species, witness.sigma) if v}
    print("  alpha:", ", ".join(f"{k}={v}" for k, v in alpha.items()))
    print("  sigma:", ", ".join(f"{k}={v}" for k, v in sigma.items()))


def main():
    lee = fixtures.load("lee")
    verdict = check_concordance(lee)
    print(f"lee: {verdict.status} after {verdict.search_nodes} search nodes")
    show_witness(lee, verdict.witness)
    print("  certificate verifies:", verify_witness(lee, verdict.witness))
    print()

    # The reactions shared by the fal and maclean models form a concordant
    # subnetwork, and almost all of fal can be added back around it.
    fal = fixtures.load("fal")
    shared = common_reactions(fal, fixtures.load("maclean"))
    print(f"fal shares {len(shared)} reactions with maclean:",
          ", ".join(r.label for r in shared))
    report = m3cr(fal, shared)
    kept = len(report.container.reactions)
    print(f"maximal concordant container keeps {kept} of {len(fal.reactions)} reactions")
    excluded = serialize_network(Network(report.discordance_set))
    print("  excluded, as .crn text:", *excluded.splitlines(), sep="\n    ")
    print("  every excluded reaction re-breaks concordance:", report.maximality_verified)


if __name__ == "__main__":
    main()
