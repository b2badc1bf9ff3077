package core

// The engine's own tests run over the registry's default store. Only test
// files may import the backends: the package's non-test sources depend
// solely on accdb/internal/spi, and tools/doccheck -boundary enforces that.
import (
	_ "accdb/internal/backends"
)
