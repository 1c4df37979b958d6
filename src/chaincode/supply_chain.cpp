#include "chaincode/supply_chain.h"

#include "common/parse.h"

namespace fl::chaincode {

namespace {

std::string shipment_key(const std::string& id) { return "ship/" + id + "/meta"; }
std::string event_prefix(const std::string& id) { return "ship/" + id + "/ev/"; }

/// Zero-padded sequence so events sort lexicographically in scan order.
std::string event_key(const std::string& id, std::size_t seq) {
    std::string n = std::to_string(seq);
    return event_prefix(id) + std::string(8 - std::min<std::size_t>(8, n.size()), '0') + n;
}

std::string seq_key(const std::string& id) { return "ship/" + id + "/seq"; }

}  // namespace

Response SupplyChainChaincode::invoke(TxContext& ctx, const std::string& function,
                                      std::span<const std::string> args) {
    if (function == "create_shipment") {
        if (args.size() != 3) {
            return Response::failure("create_shipment: want <id> <origin> <dest>");
        }
        if (ctx.get(shipment_key(args[0]))) {
            return Response::failure("create_shipment: already exists");
        }
        ctx.put(shipment_key(args[0]),
                "origin=" + args[1] + ";dest=" + args[2] + ";status=created;custodian=" + args[1]);
        ctx.put(seq_key(args[0]), "0");
        ctx.put(event_key(args[0], 0), "created");
        return Response::success();
    }
    if (function == "update_status" || function == "handoff") {
        if (args.size() != 2) {
            return Response::failure(function + ": want <id> <value>");
        }
        const auto meta = ctx.get(shipment_key(args[0]));
        if (!meta) return Response::failure(function + ": unknown shipment");
        std::size_t seq = 1;
        if (const auto seq_raw = ctx.get(seq_key(args[0]))) {
            const auto stored = parse_unsigned<std::size_t>(*seq_raw);
            if (!stored) return Response::failure(function + ": corrupt event sequence");
            seq = *stored + 1;
        }

        const std::string field = function == "update_status" ? "status" : "custodian";
        ctx.put(shipment_key(args[0]), *meta + ";" + field + "=" + args[1]);
        ctx.put(seq_key(args[0]), std::to_string(seq));
        ctx.put(event_key(args[0], seq), field + "=" + args[1]);
        return Response::success();
    }
    if (function == "track") {
        if (args.size() != 1) return Response::failure("track: want <id>");
        const auto events = ctx.range(event_prefix(args[0]), event_prefix(args[0]) + "\x7f");
        std::string history;
        for (const auto& [key, value] : events) {
            if (!history.empty()) history += ",";
            history += value;
        }
        return Response::success(history);
    }
    return Response::failure("supply_chain: unknown function " + function);
}

}  // namespace fl::chaincode
