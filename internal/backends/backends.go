// Package backends links the SPI backend implementations into a binary.
// Importing it for side effect registers the B+-tree heap store ("btree")
// and the sharded lock manager with the accdb/internal/spi registry:
//
//	import _ "accdb/internal/backends"
//
// Composition roots (pkg/acc, the cmd binaries, the examples) blank-import
// this package; internal/core itself deliberately does not, so the scheduler
// stays free of any dependency on concrete backends (see tools/doccheck
// -boundary). A program embedding the engine over its own spi.Store passes
// it with core.WithStore.
package backends

import (
	_ "accdb/internal/lock"    // registers the spi.LockService
	_ "accdb/internal/storage" // registers the "btree" row store
)
