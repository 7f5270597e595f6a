package core

import "dice/internal/bgp"

// AttrTable exposes a shadow set's attribute table to the external tests.
func (s *FabricShadows) AttrTable() *bgp.AttrTable { return s.dec.Table }
