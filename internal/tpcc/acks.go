package tpcc

import (
	"fmt"
	"sync"

	"accdb/internal/core"
	"accdb/internal/spi"
)

// AckLog remembers the writing transactions a driver saw acknowledged OK, by
// what each must have left in the database: a payment its history row
// (h_id), a new-order its order row (w, d, o_id), a delivery its carrier on
// every order it claimed. Acknowledged means durable: after a crash and
// recovery, Lost must come back empty.
type AckLog struct {
	mu        sync.Mutex
	payments  []int64
	orders    []orderKey
	delivered map[orderKey]int64 // claimed order -> carrier
}

// Observe records one acknowledged transaction; read-only types leave
// nothing to check.
func (a *AckLog) Observe(name string, args any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch v := args.(type) {
	case *PaymentArgs:
		a.payments = append(a.payments, v.HID)
	case *NewOrderArgs:
		a.orders = append(a.orders, orderKey{v.WID, v.DID, v.ONum})
	case *DeliveryArgs:
		if a.delivered == nil {
			a.delivered = make(map[orderKey]int64)
		}
		for d, o := range v.Claimed {
			if o != 0 {
				a.delivered[orderKey{v.WID, int64(d + 1), o}] = v.Carrier
			}
		}
	}
}

// Lost lists the acknowledged transactions whose effect is missing from the
// given partition databases.
func (a *AckLog) Lost(dbs []*core.DB) []string {
	history := make(map[int64]bool)
	carrier := make(map[orderKey]int64)
	for _, db := range dbs {
		db.Store().Table(THistory).Scan(func(_ spi.Key, r spi.Row) bool {
			history[r[0].Int64()] = true
			return true
		})
		db.Store().Table(TOrders).Scan(func(_ spi.Key, r spi.Row) bool {
			carrier[orderKey{r[0].Int64(), r[1].Int64(), r[2].Int64()}] = r[colOCarrier].Int64()
			return true
		})
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var lost []string
	for _, h := range a.payments {
		if !history[h] {
			lost = append(lost, fmt.Sprintf("payment h_id=%d", h))
		}
	}
	for _, k := range a.orders {
		if _, ok := carrier[k]; !ok {
			lost = append(lost, fmt.Sprintf("new_order w=%d d=%d o_id=%d", k.w, k.d, k.o))
		}
	}
	for k, c := range a.delivered {
		if carrier[k] != c {
			lost = append(lost, fmt.Sprintf("delivery of w=%d d=%d o_id=%d by carrier %d", k.w, k.d, k.o, c))
		}
	}
	return lost
}
