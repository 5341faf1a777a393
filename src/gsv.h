#ifndef GSV_GSV_H_
#define GSV_GSV_H_

// Umbrella header for the gsview library: the OEM data model, the view
// machinery of "Graph Structured Views and Their Incremental Maintenance"
// (Zhuge & Garcia-Molina, ICDE 1998), and the warehousing substrate.
// Include individual headers in larger programs; this is the quick-start
// convenience.

#include "core/aggregate_view.h"       // IWYU pragma: export
#include "core/algorithm1.h"           // IWYU pragma: export
#include "core/consistency.h"          // IWYU pragma: export
#include "core/materialized_view.h"    // IWYU pragma: export
#include "core/partial_materialization.h"  // IWYU pragma: export
#include "core/recompute.h"            // IWYU pragma: export
#include "core/swizzle.h"              // IWYU pragma: export
#include "core/union_view.h"           // IWYU pragma: export
#include "core/view_cluster.h"         // IWYU pragma: export
#include "core/view_definition.h"      // IWYU pragma: export
#include "core/virtual_view.h"         // IWYU pragma: export
#include "ivm/gdn_network.h"            // IWYU pragma: export
#include "oem/serialize.h"             // IWYU pragma: export
#include "oem/set_ops.h"               // IWYU pragma: export
#include "oem/store.h"                 // IWYU pragma: export
#include "oem/transaction.h"           // IWYU pragma: export
#include "path/navigate.h"             // IWYU pragma: export
#include "query/evaluator.h"           // IWYU pragma: export
#include "query/explain.h"             // IWYU pragma: export
#include "query/parser.h"              // IWYU pragma: export
#include "warehouse/source_wrapper_gsdb.h"  // IWYU pragma: export
#include "warehouse/warehouse.h"       // IWYU pragma: export

#endif  // GSV_GSV_H_
