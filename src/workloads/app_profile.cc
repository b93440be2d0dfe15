#include "workloads/app_profile.hh"

#include "common/log.hh"

namespace rc
{

const char *
toString(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Loop: return "Loop";
      case AccessPattern::Uniform: return "Uniform";
      case AccessPattern::Zipf: return "Zipf";
      case AccessPattern::Stream: return "Stream";
      case AccessPattern::Chase: return "Chase";
    }
    return "?";
}

AppProfile
makeSpecAnalog(const std::string &name, double l1_mpki, double l2_mpki,
               double llc_mpki, MissStyle style,
               std::uint64_t llc_region_bytes, double zipf_s,
               std::uint64_t code_bytes)
{
    RC_ASSERT(l1_mpki >= l2_mpki && l2_mpki >= llc_mpki,
              "MPKI must be monotonically non-increasing down the "
              "hierarchy (%s)", name.c_str());

    AppProfile app;
    app.name = name;
    app.codeBytes = code_bytes;

    // References per kilo-instruction; all components are line-granular,
    // so a component consuming `rate` MPKI of misses at its deepest
    // hitting level needs weight = rate / refs_per_ki.
    const double refs_per_ki = app.memRatio * 1000.0;

    // Miss floor: traffic that misses every level (the SLLC's dead lines).
    if (llc_mpki > 0.0) {
        Component miss;
        miss.pattern = style == MissStyle::Stream ? AccessPattern::Stream
                                                  : AccessPattern::Chase;
        miss.weight = llc_mpki / refs_per_ki;
        miss.regionBytes = 512ull * 1024 * 1024; // far beyond any cache
        miss.burstLines = 2;
        app.components.push_back(miss);
    }

    // SLLC-level reuse set: misses the private levels, hits the SLLC.
    // Zipf skew concentrates the hits in a small hot subset, which is
    // exactly the reuse locality the paper measures (Section 2).
    const double llc_hit_rate = l2_mpki - llc_mpki;
    if (llc_hit_rate > 0.0) {
        Component reuse;
        reuse.pattern = AccessPattern::Zipf;
        reuse.weight = llc_hit_rate / refs_per_ki;
        reuse.regionBytes = llc_region_bytes;
        reuse.zipfS = zipf_s;
        app.components.push_back(reuse);
    }

    // L2-level set: misses the L1, hits the L2.
    const double l2_hit_rate = l1_mpki - l2_mpki;
    if (l2_hit_rate > 0.0) {
        Component l2set;
        l2set.pattern = AccessPattern::Loop;
        l2set.weight = l2_hit_rate / refs_per_ki;
        l2set.regionBytes = 96 * 1024; // between L1 (32 KB) and L2 (256 KB)
        app.components.push_back(l2set);
    }

    double total = 0.0;
    for (const auto &c : app.components)
        total += c.weight;
    RC_ASSERT(total <= 1.0, "MPKI targets of %s exceed the reference "
              "budget (weight sum %.3f)", name.c_str(), total);
    return app;
}

const std::vector<AppProfile> &
specProfiles()
{
    // Table 5 of the paper, in its own order.  Styles and hot-region
    // parameters are chosen per application class: streaming fp codes
    // sweep, irregular integer codes chase; applications whose LLC
    // filters many L2 misses get larger / more skewed hot regions.
    static const std::vector<AppProfile> profiles = {
        makeSpecAnalog("perlbench", 3.7, 0.8, 0.6, MissStyle::Chase,
                       1024 * 1024, 1.0, 96 * 1024),
        makeSpecAnalog("bzip2", 8.2, 4.3, 2.1, MissStyle::Chase,
                       2048 * 1024, 0.9, 24 * 1024),
        makeSpecAnalog("gcc", 21.8, 7.1, 6.2, MissStyle::Chase,
                       1536 * 1024, 0.9, 128 * 1024),
        makeSpecAnalog("bwaves", 20.3, 19.6, 19.6, MissStyle::Stream,
                       1024 * 1024, 0.8, 12 * 1024),
        makeSpecAnalog("gamess", 75.3, 46.2, 28.6, MissStyle::Stream,
                       3072 * 1024, 1.0, 48 * 1024),
        makeSpecAnalog("mcf", 22.9, 22.2, 18.1, MissStyle::Chase,
                       2048 * 1024, 0.8, 16 * 1024),
        makeSpecAnalog("milc", 21.6, 21.6, 21.5, MissStyle::Stream,
                       1024 * 1024, 0.8, 16 * 1024),
        makeSpecAnalog("zeusmp", 12.3, 6.4, 6.3, MissStyle::Stream,
                       1024 * 1024, 0.8, 24 * 1024),
        makeSpecAnalog("gromacs", 8.71, 5.91, 5.91, MissStyle::Stream,
                       1024 * 1024, 0.8, 24 * 1024),
        makeSpecAnalog("cactusADM", 13.9, 1.4, 0.7, MissStyle::Stream,
                       1280 * 1024, 1.0, 24 * 1024),
        makeSpecAnalog("leslie3d", 29.5, 18.1, 17.7, MissStyle::Stream,
                       1024 * 1024, 0.8, 16 * 1024),
        makeSpecAnalog("namd", 1.4, 0.2, 0.1, MissStyle::Chase,
                       768 * 1024, 1.0, 16 * 1024),
        makeSpecAnalog("gobmk", 9.5, 0.5, 0.4, MissStyle::Chase,
                       768 * 1024, 1.0, 96 * 1024),
        makeSpecAnalog("dealII", 2.3, 0.3, 0.3, MissStyle::Chase,
                       768 * 1024, 0.9, 48 * 1024),
        makeSpecAnalog("soplex", 6.7, 5.8, 4.8, MissStyle::Chase,
                       1536 * 1024, 0.9, 24 * 1024),
        makeSpecAnalog("povray", 11.0, 0.3, 0.3, MissStyle::Chase,
                       768 * 1024, 1.0, 48 * 1024),
        makeSpecAnalog("calculix", 13.8, 3.7, 1.5, MissStyle::Stream,
                       1536 * 1024, 1.0, 24 * 1024),
        makeSpecAnalog("hmmer", 2.9, 2.2, 1.7, MissStyle::Chase,
                       1024 * 1024, 0.9, 16 * 1024),
        makeSpecAnalog("sjeng", 4.2, 0.5, 0.5, MissStyle::Chase,
                       768 * 1024, 0.9, 48 * 1024),
        makeSpecAnalog("GemsFDTD", 25.8, 25.7, 21.6, MissStyle::Stream,
                       2048 * 1024, 0.8, 16 * 1024),
        makeSpecAnalog("libquantum", 36.6, 36.6, 36.6, MissStyle::Stream,
                       1024 * 1024, 0.8, 8 * 1024),
        makeSpecAnalog("h264ref", 3.5, 0.7, 0.6, MissStyle::Chase,
                       768 * 1024, 1.0, 96 * 1024),
        makeSpecAnalog("tonto", 4.88, 0.86, 0.52, MissStyle::Stream,
                       1024 * 1024, 1.0, 48 * 1024),
        makeSpecAnalog("lbm", 68.1, 39.2, 39.2, MissStyle::Stream,
                       1024 * 1024, 0.8, 8 * 1024),
        makeSpecAnalog("omnetpp", 7.3, 4.4, 1.2, MissStyle::Chase,
                       2048 * 1024, 1.0, 64 * 1024),
        makeSpecAnalog("astar", 6.9, 0.9, 0.7, MissStyle::Chase,
                       1024 * 1024, 1.0, 24 * 1024),
        makeSpecAnalog("wrf", 4.1, 1.6, 0.5, MissStyle::Stream,
                       1280 * 1024, 1.0, 48 * 1024),
        makeSpecAnalog("sphinx3", 13.8, 8.0, 6.3, MissStyle::Stream,
                       1536 * 1024, 0.9, 24 * 1024),
        makeSpecAnalog("xalancbmk", 8.2, 7.0, 6.4, MissStyle::Chase,
                       1024 * 1024, 0.9, 96 * 1024),
    };
    return profiles;
}

const AppProfile *
findProfile(const std::string &name)
{
    for (const auto &p : specProfiles()) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

} // namespace rc
