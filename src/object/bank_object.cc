#include "object/bank_object.h"

#include <numeric>

#include "common/assert.h"

namespace cht::object {

std::string BankState::fingerprint() const {
  std::string out;
  for (const auto& [account, amount] : accounts_) {
    append_field(out, account);
    append_field(out, std::to_string(amount));
  }
  return out;
}

Response BankObject::apply(ObjectState& state, const Operation& op) const {
  auto& bank = dynamic_cast<BankState&>(state);
  if (op.kind == "balance") {
    auto it = bank.accounts().find(op.arg);
    return std::to_string(it == bank.accounts().end() ? 0 : it->second);
  }
  if (op.kind == "total") {
    std::int64_t total = 0;
    for (const auto& [_, amount] : bank.accounts()) total += amount;
    return std::to_string(total);
  }
  if (op.kind == "deposit") {
    const std::string account = arg_field(op.arg, 0);
    const std::int64_t amount = std::stoll(arg_field(op.arg, 1));
    bank.accounts()[account] += amount;
    return std::to_string(bank.accounts()[account]);
  }
  if (op.kind == "transfer") {
    const std::string from = arg_field(op.arg, 0);
    const std::string to = arg_field(op.arg, 1);
    const std::int64_t amount = std::stoll(arg_field(op.arg, 2));
    if (bank.accounts()[from] < amount) return "insufficient";
    bank.accounts()[from] -= amount;
    bank.accounts()[to] += amount;
    return "ok";
  }
  if (op.kind == "noop") return "ok";
  CHT_UNREACHABLE("unknown bank operation");
}

bool BankObject::conflicts(const Operation& read, const Operation& rmw) const {
  if (is_no_op(rmw)) return false;
  if (read.kind == "total") {
    // Transfers preserve the total (whether they succeed or not); only
    // deposits change it. This is the paper's semantic conflict notion: the
    // read's value is unaffected by the RMW from *every* state.
    return rmw.kind == "deposit";
  }
  // balance(a): conflicts iff the RMW can touch account a.
  const std::string& account = read.arg;
  if (rmw.kind == "deposit") return arg_field(rmw.arg, 0) == account;
  if (rmw.kind == "transfer") {
    return arg_field(rmw.arg, 0) == account || arg_field(rmw.arg, 1) == account;
  }
  return true;
}

}  // namespace cht::object
