#include "object/object.h"

#include "common/assert.h"

namespace cht::object {

std::string encode_args(std::initializer_list<std::string> fields) {
  std::string out;
  bool first = true;
  for (const auto& f : fields) {
    CHT_ASSERT(f.find(':') == std::string::npos,
               "argument fields must not contain ':'");
    if (!first) out += ':';
    out += f;
    first = false;
  }
  return out;
}

std::string arg_field(const std::string& arg, int index) {
  std::size_t start = 0;
  for (int i = 0; i < index; ++i) {
    const std::size_t colon = arg.find(':', start);
    CHT_ASSERT(colon != std::string::npos, "argument field index out of range");
    start = colon + 1;
  }
  const std::size_t end = arg.find(':', start);
  return end == std::string::npos ? arg.substr(start)
                                  : arg.substr(start, end - start);
}

void append_field(std::string& out, std::string_view field) {
  out += std::to_string(field.size());
  out += ':';
  out += field;
}

}  // namespace cht::object
