// nvm_workbench: a small command-line tool around the library, working on
// helper-NVM blob files the way an attacker with an EEPROM programmer would.
//
//   nvm_workbench enroll  <nvm-file> [seed]    enroll a seq-pairing device,
//                                              write its helper NVM to a file
//   nvm_workbench regen   <nvm-file> [seed]    regenerate the key from a blob
//   nvm_workbench audit   <nvm-file>           run the Section VII sanity checks
//   nvm_workbench attack  <nvm-file> [seed]    run the Section VI-A key recovery
//   nvm_workbench flip    <nvm-file> <byte> <bit>   manipulate one NVM bit
//
// The device ("chip") is simulated deterministically from the seed, so a
// blob enrolled with seed S can only be regenerated against the same seed —
// exactly like helper data bound to one physical IC.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "ropuf/attack/seqpair_attack.hpp"
#include "ropuf/helperdata/sanity.hpp"

namespace {

using namespace ropuf;

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(2);
    }
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

sim::RoArray make_chip(std::uint64_t seed) {
    return sim::RoArray({16, 8}, sim::ProcessParams{}, seed);
}

int cmd_enroll(const std::string& path, std::uint64_t seed) {
    const auto chip = make_chip(seed);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    rng::Xoshiro256pp rng(seed ^ 0xe17011);
    const auto enrollment = puf.enroll(rng);
    write_file(path, pairing::serialize(enrollment.helper).bytes());
    std::printf("enrolled device seed=%llu: %zu key bits\n",
                static_cast<unsigned long long>(seed), enrollment.key.size());
    std::printf("key (keep secret!): %s\n", bits::to_string(enrollment.key).c_str());
    std::printf("helper NVM (%zu bytes) -> %s\n",
                pairing::serialize(enrollment.helper).size(), path.c_str());
    return 0;
}

int cmd_regen(const std::string& path, std::uint64_t seed) {
    const auto chip = make_chip(seed);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    rng::Xoshiro256pp rng(seed ^ 0x4e6e4);
    try {
        const auto helper = pairing::parse_seq_pairing(helperdata::Nvm(read_file(path)));
        const auto rec = puf.reconstruct(helper, rng);
        if (!rec.ok) {
            std::printf("key regeneration FAILED (observable to an attacker!)\n");
            return 1;
        }
        std::printf("key regenerated: %s (%d errors corrected)\n",
                    bits::to_string(rec.key).c_str(), rec.corrected);
        return 0;
    } catch (const helperdata::ParseError& e) {
        std::printf("helper blob rejected: %s\n", e.what());
        return 1;
    }
}

int cmd_audit(const std::string& path) {
    try {
        const auto helper = pairing::parse_seq_pairing(helperdata::Nvm(read_file(path)));
        std::printf("blob parses: %zu pairs, %zu parity bits\n", helper.pairs.size(),
                    helper.ecc.parity.size());
        const auto report =
            helperdata::check_pair_list(helper.pairs, /*ro_count=*/16 * 8, true);
        if (report.ok) {
            std::printf("structural checks: PASS\n");
        } else {
            std::printf("structural checks: FAIL\n");
            for (const auto& v : report.violations) std::printf("  - %s\n", v.c_str());
        }
        // Section VII-C audit: does the stored order leak the key?
        std::printf("storage-order audit: if this device sorted pairs by frequency,\n");
        std::printf("  the key would be all-ones — test with `attack` (1 query).\n");
        return report.ok ? 0 : 1;
    } catch (const helperdata::ParseError& e) {
        std::printf("blob rejected: %s\n", e.what());
        return 1;
    }
}

int cmd_attack(const std::string& path, std::uint64_t seed) {
    const auto chip = make_chip(seed);
    const pairing::SeqPairingPuf puf(chip, pairing::SeqPairingConfig{});
    // The attacker needs the enrolled key only to MODEL the application
    // oracle; re-derive it the same way the device was enrolled.
    rng::Xoshiro256pp enroll_rng(seed ^ 0xe17011);
    const auto enrollment = puf.enroll(enroll_rng);

    const auto pristine = pairing::parse_seq_pairing(helperdata::Nvm(read_file(path)));
    attack::SeqPairingAttack::Victim victim(puf, enrollment.key, seed ^ 0xa77ac);
    attack::SeqPairingSession session(pristine, puf.code());
    auto oracle = attack::make_oracle(victim);
    attack::run_to_completion(session, oracle);
    const auto& result = session.result();
    std::printf("attack: %d relation tests, %lld oracle queries%s\n", result.relation_tests,
                static_cast<long long>(result.queries),
                result.used_sorted_leak ? " (sorted-storage shortcut!)" : "");
    if (result.resolved) {
        std::printf("recovered key: %s\n", bits::to_string(result.recovered_key).c_str());
        std::printf("=> %s\n", result.recovered_key == enrollment.key
                                   ? "matches the device key: FULL KEY RECOVERY"
                                   : "does NOT match (stale blob for this seed?)");
        return 0;
    }
    std::printf("attack unresolved\n");
    return 1;
}

int cmd_flip(const std::string& path, std::size_t byte, int bit) {
    helperdata::Nvm nvm(read_file(path));
    try {
        nvm.flip_bit(byte, bit);
    } catch (const std::out_of_range& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    write_file(path, nvm.bytes());
    std::printf("flipped byte %zu bit %d of %s\n", byte, bit, path.c_str());
    return 0;
}

void usage() {
    std::puts("usage: nvm_workbench <enroll|regen|audit|attack> <nvm-file> [seed]");
    std::puts("       nvm_workbench flip <nvm-file> <byte> <bit>");
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 3) {
        usage();
        return 2;
    }
    using examples::parse_arg;
    const std::string cmd = argv[1];
    const std::string path = argv[2];
    // Numbers take strtoull base 0: decimal, 0x-hex or 0-octal.
    if (cmd == "flip") {
        unsigned long long byte = 0;
        unsigned long long bit = 0;
        if (argc != 5 || !parse_arg(argv[3], 0, SIZE_MAX, &byte, 0) ||
            !parse_arg(argv[4], 0, INT_MAX, &bit, 0)) {
            usage();
            return 2;
        }
        return cmd_flip(path, static_cast<std::size_t>(byte), static_cast<int>(bit));
    }
    unsigned long long seed = 2014;
    if (argc > 4 || (argc > 3 && !parse_arg(argv[3], 0, ~0ULL, &seed, 0))) {
        usage();
        return 2;
    }
    if (cmd == "enroll") return cmd_enroll(path, seed);
    if (cmd == "regen") return cmd_regen(path, seed);
    if (cmd == "audit") return cmd_audit(path);
    if (cmd == "attack") return cmd_attack(path, seed);
    usage();
    return 2;
}
