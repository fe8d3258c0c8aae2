#include "eda/display.h"

namespace atena {

GroupSpec Display::MakeGroupSpec() const {
  GroupSpec spec;
  spec.group_columns = group_columns;
  spec.agg = agg;
  spec.agg_column = agg_column;
  return spec;
}

}  // namespace atena
